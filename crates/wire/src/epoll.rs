//! Minimal epoll(7) wrapper — the readiness engine of the live farm.
//!
//! The offline build cannot vendor mio or Tokio, so this module talks to
//! epoll directly through the libc symbols the standard library already
//! links (`epoll_create1` / `epoll_ctl` / `epoll_wait`). The surface is
//! deliberately tiny: level-triggered registration of raw fds with a `u64`
//! token, and a timeout-bounded wait. Everything else (slabs, deadlines,
//! shutdown flags) lives in the reactor that owns the instance.
//!
//! Linux-only by design; the rest of the workspace stays portable.

use std::io;
use std::os::fd::RawFd;

/// Readable readiness (EPOLLIN).
pub const IN: u32 = 0x001;
/// Writable readiness (EPOLLOUT).
pub const OUT: u32 = 0x004;
/// Error condition (always reported; no need to register).
pub const ERR: u32 = 0x008;
/// Hang-up (always reported; no need to register).
pub const HUP: u32 = 0x010;
/// Peer shut down the writing half (EPOLLRDHUP).
pub const RDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

/// `struct epoll_event`. Packed on x86-64 (the kernel ABI), naturally
/// aligned elsewhere — the same split the libc crate makes.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct Event {
    events: u32,
    data: u64,
}

impl Event {
    /// An empty event, for buffer initialisation.
    pub const fn zeroed() -> Event {
        Event { events: 0, data: 0 }
    }

    /// Ready-state bits (a mask of [`IN`], [`OUT`], [`ERR`], [`HUP`],
    /// [`RDHUP`]).
    pub fn readiness(&self) -> u32 {
        // Reading a packed field by value is fine; borrowing it is not.
        self.events
    }

    /// The token the fd was registered with.
    pub fn token(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// One epoll instance. Closes its fd on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a new instance (CLOEXEC).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointer crosses the call, and the flag is valid.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = Event {
            events: interest,
            data: token,
        };
        // SAFETY: `self.fd` is our open epoll fd, and `ev` is a live
        // `epoll_event` in the kernel's layout, which the kernel only copies.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with the given interest mask and token.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the interest mask of a registered fd.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregister an fd.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = Event { events: 0, data: 0 };
        // SAFETY: as in `ctl`.
        let rc = unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait up to `timeout_ms` for readiness; fills `events` and returns the
    /// number of ready entries. EINTR is mapped to zero events.
    pub fn wait(&self, events: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `self.fd` is our open epoll fd; the kernel writes at most
        // `maxevents <= events.len()` entries into the borrowed buffer.
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is our epoll fd; drop runs once, so it is closed
        // exactly once and never used after.
        unsafe {
            let _ = close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_roundtrip_over_loopback() {
        let ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        ep.add(listener.as_raw_fd(), IN, 7).unwrap();

        let mut events = [Event { events: 0, data: 0 }; 8];
        // Nothing pending yet.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert!(events[0].readiness() & IN != 0);

        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        ep.add(accepted.as_raw_fd(), IN | RDHUP, 9).unwrap();
        client.write_all(b"x").unwrap();
        let n = ep.wait(&mut events, 2000).unwrap();
        assert!(n >= 1);
        assert!((0..n).any(|i| events[i].token() == 9));

        ep.del(accepted.as_raw_fd()).unwrap();
        ep.del(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn modify_switches_interest() {
        let ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nonblocking(true).unwrap();
        ep.add(client.as_raw_fd(), IN, 1).unwrap();
        let mut events = [Event { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no input yet");
        // A fresh socket is immediately writable.
        ep.modify(client.as_raw_fd(), OUT, 2).unwrap();
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 2);
        assert!(events[0].readiness() & OUT != 0);
    }
}

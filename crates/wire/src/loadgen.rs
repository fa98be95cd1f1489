//! Wire-level load generator.
//!
//! Replays `.hfs` scenarios against a running [`LiveFarm`] (or an external
//! `hfarm serve` process) over real loopback TCP, at configurable
//! concurrency, from a single thread driving its own epoll instance — the
//! client-side twin of the farm reactor. Each driven session gets a
//! distinct synthetic attacker identity through the `@hfs client` control
//! line (loopback sockets cannot vary their source address), so the
//! collector sees a diverse client population even though every byte rides
//! `127/8`.
//!
//! Two concurrency shapes:
//!
//! * **rolling** (default) — at most `concurrency` sessions in flight;
//!   a finished session immediately admits the next. Measures sustained
//!   session throughput.
//! * **hold-all** — every session connects and writes its script, then
//!   *stays open* until all of them are up — every script written and every
//!   greeting read, so the farm has accepted each one — and only then do the
//!   clients half-close and drain. This is the concurrency high-water proof: the
//!   farm holds `sessions` live connections simultaneously (visible in its
//!   `open_peak` stat) before any of them completes.
//!
//! [`LiveFarm`]: crate::LiveFarm

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use hf_geo::Ip4;
use hf_proto::Protocol;
use hf_testkit::Scenario;

use crate::epoll::{self, Epoll};
use crate::farm::NodeAddrs;
use crate::script::wire_script_as;

/// Per-session inactivity limit before a session counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total sessions to drive.
    pub sessions: usize,
    /// Max sessions in flight (rolling mode).
    pub concurrency: usize,
    /// Hold every session open until all are connected, then release
    /// (concurrency proof mode; `concurrency` is ignored).
    pub hold_all: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            sessions: 100,
            concurrency: 32,
            hold_all: false,
        }
    }
}

/// What a load-generation run did, client-side.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Connections successfully established (== the farm's `accepted` when
    /// nothing else talks to it).
    pub driven: u64,
    /// TCP connects that failed outright (never reached the farm).
    pub connect_errors: u64,
    /// Sessions that ran to server EOF.
    pub completed: u64,
    /// Sessions dropped by the client's own inactivity limit.
    pub failed: u64,
    /// Server bytes read across all sessions.
    pub bytes_in: u64,
    /// Wall time for the whole run.
    pub elapsed: Duration,
    /// Client-side peak of concurrently open sessions.
    pub peak_open: u64,
}

enum CState {
    /// Script bytes still to write.
    Writing,
    /// Fully written, held open (hold-all barrier).
    Held,
    /// Write side shut; reading to EOF.
    Drain,
}

struct CConn {
    sock: TcpStream,
    script: Vec<u8>,
    pos: usize,
    state: CState,
    last: Instant,
    /// The server's first byte (its greeting) has arrived.
    greeted: bool,
}

/// The synthetic attacker identity of driven session `i`.
fn client_identity(i: usize) -> (Ip4, u16) {
    let ip = Ip4::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
    (ip, 40000 + (i % 20000) as u16)
}

/// Drive `cfg.sessions` scenario replays against the farm's nodes.
/// Scenarios are assigned round-robin; each targets the node
/// `scenario.honeypot % nodes.len()` on its own protocol's listener.
pub fn run(nodes: &[NodeAddrs], scenarios: &[Scenario], cfg: &LoadgenConfig) -> LoadgenReport {
    assert!(!nodes.is_empty(), "loadgen needs at least one node");
    assert!(!scenarios.is_empty(), "loadgen needs at least one scenario");
    let started = Instant::now();
    let mut report = LoadgenReport::default();
    let ep = Epoll::new().expect("client epoll");
    let mut conns: Vec<Option<CConn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut pending: VecDeque<usize> = (0..cfg.sessions).collect();
    let mut active: u64 = 0;
    let mut writing: u64 = 0;
    // Open sessions that have not yet read their greeting.
    let mut ungreeted: u64 = 0;
    let mut released = !cfg.hold_all;
    let max_in_flight = if cfg.hold_all {
        cfg.sessions
    } else {
        cfg.concurrency.max(1)
    };
    let mut events = [epoll::Event::zeroed(); 256];

    loop {
        // Admit new sessions (bounded per iteration so IO stays serviced).
        let mut admitted = 0;
        while admitted < 256 && (active as usize) < max_in_flight {
            let Some(i) = pending.pop_front() else { break };
            admitted += 1;
            let sc = &scenarios[i % scenarios.len()];
            let node = nodes[sc.honeypot as usize % nodes.len()];
            let addr = match sc.protocol {
                Protocol::Ssh => node.ssh,
                Protocol::Telnet => node.telnet,
            };
            let (ip, port) = client_identity(i);
            let script = wire_script_as(sc, ip, port).into_bytes();
            let sock = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(_) => {
                    report.connect_errors += 1;
                    continue;
                }
            };
            report.driven += 1;
            if sock.set_nonblocking(true).is_err() {
                report.failed += 1;
                continue;
            }
            let _ = sock.set_nodelay(true);
            let slot = free.pop().unwrap_or_else(|| {
                conns.push(None);
                conns.len() - 1
            });
            let mut conn = CConn {
                sock,
                script,
                pos: 0,
                state: CState::Writing,
                last: Instant::now(),
                greeted: false,
            };
            active += 1;
            writing += 1;
            ungreeted += 1;
            report.peak_open = report.peak_open.max(active);
            // Most scripts fit the socket buffer: try inline first.
            let mut done = false;
            step_write(&mut conn, released, &mut writing, &mut done);
            if done {
                // Immediate failure path: count and move on.
                active -= 1;
                ungreeted -= 1;
                report.failed += 1;
                free.push(slot);
                continue;
            }
            let interest = match conn.state {
                CState::Writing => epoll::IN | epoll::OUT,
                _ => epoll::IN,
            };
            if ep
                .add(conn.sock.as_raw_fd(), interest, slot as u64)
                .is_err()
            {
                active -= 1;
                ungreeted -= 1;
                report.failed += 1;
                free.push(slot);
                continue;
            }
            conns[slot] = Some(conn);
        }

        // Hold-all release: every script is written and every greeting read,
        // so the farm has accepted every session; let go.
        if !released && pending.is_empty() && writing == 0 && ungreeted == 0 {
            released = true;
            for conn in conns.iter_mut().flatten() {
                if matches!(conn.state, CState::Held) {
                    let _ = conn.sock.shutdown(Shutdown::Write);
                    conn.state = CState::Drain;
                    conn.last = Instant::now();
                }
            }
        }

        if active == 0 && pending.is_empty() {
            break;
        }

        let n = ep.wait(&mut events, 20).unwrap_or(0);
        let mut closed: Vec<usize> = Vec::new();
        for ev in events.iter().take(n) {
            let slot = ev.token() as usize;
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            let readiness = ev.readiness();
            if readiness & epoll::OUT != 0 && matches!(conn.state, CState::Writing) {
                let was_writing = matches!(conn.state, CState::Writing);
                let mut dead = false;
                step_write(conn, released, &mut writing, &mut dead);
                if dead {
                    // Server went away mid-write; keep reading for its
                    // final bytes, EOF/reset will complete the session.
                    conn.state = CState::Drain;
                }
                if was_writing && !matches!(conn.state, CState::Writing) {
                    let _ = ep.modify(conn.sock.as_raw_fd(), epoll::IN, slot as u64);
                }
                conn.last = Instant::now();
            }
            if readiness & (epoll::IN | epoll::RDHUP | epoll::HUP | epoll::ERR) != 0 {
                let mut buf = [0u8; 4096];
                loop {
                    match conn.sock.read(&mut buf) {
                        Ok(0) => {
                            report.completed += 1;
                            closed.push(slot);
                            break;
                        }
                        Ok(n) => {
                            report.bytes_in += n as u64;
                            conn.last = Instant::now();
                            if !conn.greeted {
                                conn.greeted = true;
                                ungreeted -= 1;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            // Reset counts as a completed (server-ended)
                            // session: the farm recorded it before closing.
                            report.completed += 1;
                            closed.push(slot);
                            break;
                        }
                    }
                }
            }
        }
        for slot in closed {
            if let Some(conn) = conns[slot].take() {
                if matches!(conn.state, CState::Writing) {
                    writing -= 1;
                }
                if !conn.greeted {
                    ungreeted -= 1;
                }
                let _ = ep.del(conn.sock.as_raw_fd());
                active -= 1;
                free.push(slot);
            }
        }

        // Inactivity sweep.
        let now = Instant::now();
        for (slot, entry) in conns.iter_mut().enumerate() {
            let timed_out = entry
                .as_ref()
                .is_some_and(|c| !matches!(c.state, CState::Held) && now - c.last > IO_TIMEOUT);
            if timed_out {
                let conn = entry.take().expect("checked");
                if matches!(conn.state, CState::Writing) {
                    writing -= 1;
                }
                if !conn.greeted {
                    ungreeted -= 1;
                }
                let _ = ep.del(conn.sock.as_raw_fd());
                active -= 1;
                free.push(slot);
                report.failed += 1;
            }
        }
    }
    report.elapsed = started.elapsed();
    report
}

/// Push script bytes; transitions Writing → Held/Drain when done. Sets
/// `dead` on a hard write error (peer gone).
fn step_write(conn: &mut CConn, released: bool, writing: &mut u64, dead: &mut bool) {
    if !matches!(conn.state, CState::Writing) {
        return;
    }
    while conn.pos < conn.script.len() {
        match conn.sock.write(&conn.script[conn.pos..]) {
            Ok(0) => break,
            Ok(n) => conn.pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                *writing -= 1;
                *dead = true;
                return;
            }
        }
    }
    *writing -= 1;
    if released {
        let _ = conn.sock.shutdown(Shutdown::Write);
        conn.state = CState::Drain;
    } else {
        conn.state = CState::Held;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Timing;
    use crate::farm::{FarmConfig, LiveFarm};

    fn corpus() -> Vec<Scenario> {
        vec![
            Scenario::parse("name lg_ssh\nprotocol ssh\nlogin root pw\ncmd uname -a\nclose\n")
                .unwrap(),
            Scenario::parse("name lg_telnet\nprotocol telnet\nhoneypot 1\nlogin root pw\nclose\n")
                .unwrap(),
        ]
    }

    #[test]
    fn rolling_load_accounts_every_session() {
        let farm = LiveFarm::start(FarmConfig {
            nodes: 2,
            timing: Timing::Virtual,
            per_ip_cap: 1 << 30,
            ..FarmConfig::default()
        })
        .unwrap();
        let report = run(
            farm.nodes(),
            &corpus(),
            &LoadgenConfig {
                sessions: 40,
                concurrency: 8,
                ..LoadgenConfig::default()
            },
        );
        let out = farm.shutdown();
        assert_eq!(report.connect_errors, 0);
        assert_eq!(report.driven, 40);
        assert_eq!(out.stats.accepted(), 40);
        assert_eq!(
            out.stats.ingested() + out.stats.rejected_ip_cap(),
            report.driven
        );
        assert_eq!(out.dataset.len(), 40);
    }

    #[test]
    fn hold_all_overlaps_every_session() {
        let farm = LiveFarm::start(FarmConfig {
            nodes: 1,
            timing: Timing::Virtual,
            per_ip_cap: 1 << 30,
            ..FarmConfig::default()
        })
        .unwrap();
        let stats = farm.stats();
        let sc = vec![Scenario::parse("name hold\nprotocol ssh\nlogin root pw\n").unwrap()];
        let report = run(
            farm.nodes(),
            &sc,
            &LoadgenConfig {
                sessions: 50,
                hold_all: true,
                ..LoadgenConfig::default()
            },
        );
        let out = farm.shutdown();
        assert_eq!(report.driven, 50);
        assert_eq!(report.peak_open, 50, "all sessions overlapped client-side");
        assert!(
            stats.open_peak() >= 50,
            "farm held all sessions concurrently (peak {})",
            stats.open_peak()
        );
        assert_eq!(out.stats.ingested(), 50);
        assert!(out.stats.accounting_balanced());
    }
}

//! The live farm: listeners and one reactor thread that also collects.
//!
//! [`LiveFarm::start`] binds one SSH and one telnet listener per virtual
//! node on mirror loopback addresses (the deployment's `198.x.y.z` node
//! plan with the first octet swapped to `127`, so every node keeps its own
//! distinct local IP), then runs one thread: the reactor, a single epoll
//! loop owning every socket and the [`Collector`]. Accepts map to
//! [`SessionConn`] state machines in a slab; reads, writes, per-IP caps,
//! and read deadlines are all driven level-triggered off one `epoll_wait`
//! tick. A finished session's record is ingested before its socket closes,
//! so a client that reads EOF can rely on [`FarmStats::ingested`] counting
//! it; while the reactor ingests it reads nothing, so TCP slows clients.
//!
//! # Shutdown protocol (zero record loss)
//!
//! [`LiveFarm::shutdown`] sets a flag the reactor observes within one tick
//! (≤25 ms). The reactor then stops accepting (drops every listener),
//! force-finishes every live connection as a client close (ingesting each
//! record before closing its socket), flushes its obs buffers, and returns
//! the finished [`FarmOutput`] to `shutdown` — which is why `accepted ==
//! ingested + rejected` holds exactly at that point, with no grace-period
//! heuristics.
//!
//! # Accounting invariant
//!
//! Every accepted connection takes exactly one of two paths: rejected at
//! accept by the per-IP cap (no record), or owned by a [`SessionConn`] that
//! emits exactly one record on every exit path (protocol close, EOF, read
//! error, fault policy, deadline, farm shutdown). [`FarmStats`] counts both
//! sides; `wire_shutdown.rs` and the loadgen smoke assert the equality.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hf_farm::deployment::node_ip;
use hf_farm::{Collector, Dataset, FarmPlan, Snapshot, SnapshotMeta, TagDb};
use hf_geo::{Ip4, World, WorldConfig};
use hf_honeypot::{HoneypotConfig, SessionRecord};
use hf_proto::Protocol;
use hf_shell::SystemProfile;

use crate::conn::{ConnParams, SessionConn, Timing};
use crate::epoll::{self, Epoll};
use crate::stats::FarmStats;

/// Reactor tick; also the shutdown-observation latency bound.
const TICK_MS: i32 = 25;
/// Max reads per connection per wake, for fairness across connections
/// (level-triggered epoll re-reports anything left unread).
const READS_PER_WAKE: u32 = 8;
/// How long a draining connection may take to flush its final bytes.
const DRAIN_SECS: u64 = 5;

const LISTENER_FLAG: u64 = 1 << 63;

/// Farm configuration. `Default` is sized for tests: 3 nodes, ephemeral
/// ports, wall timing.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Number of virtual nodes to bind (the paper deployment is 221).
    pub nodes: u16,
    /// SSH listener port (0 = ephemeral, distinct per node).
    pub ssh_port: u16,
    /// Telnet listener port (0 = ephemeral, distinct per node).
    pub telnet_port: u16,
    /// Wall-clock or script-driven session timing.
    pub timing: Timing,
    /// Read deadline for [`Timing::Virtual`] connections (a slow-client
    /// guard; wall-timing connections use the honeypot's own limits).
    pub wall_timeout_secs: u32,
    /// Max concurrently open connections per client IP; the excess is
    /// closed at accept without a record.
    pub per_ip_cap: u32,
    /// Also keep raw [`SessionRecord`]s in [`FarmOutput::records`]
    /// (conformance tests want field-level diffs, not just the store).
    pub keep_records: bool,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            nodes: 3,
            ssh_port: 0,
            telnet_port: 0,
            timing: Timing::Wall,
            wall_timeout_secs: 30,
            per_ip_cap: 1024,
            keep_records: false,
        }
    }
}

/// Where one virtual node's listeners ended up.
#[derive(Debug, Clone, Copy)]
pub struct NodeAddrs {
    /// Node (honeypot) index.
    pub id: u16,
    /// Bound SSH listener address.
    pub ssh: SocketAddr,
    /// Bound telnet listener address.
    pub telnet: SocketAddr,
}

/// Everything a farm run produced.
pub struct FarmOutput {
    /// The collector's finished dataset.
    pub dataset: Dataset,
    /// Raw records in ingest order (only if `keep_records` was set).
    pub records: Vec<SessionRecord>,
    /// Distinct client addresses observed.
    pub n_clients: u64,
    /// Final counters (accounting balanced after shutdown — see module
    /// docs).
    pub stats: FarmStats,
}

impl FarmOutput {
    /// Package the run as an hfstore snapshot (the `hfarm serve` shutdown
    /// artifact). Live runs have no seed or scale; days span the observed
    /// session starts. Sessions arrive in completion order, which `@hfs
    /// start` can make go back in time, so the rows are written in start
    /// order: the order every snapshot fold requires.
    pub fn to_snapshot(&self) -> Snapshot {
        let sessions = &self.dataset.sessions;
        let days = (0..sessions.len())
            .map(|i| sessions.view(i).day())
            .max()
            .map_or(1, |d| d + 1);
        Snapshot {
            meta: SnapshotMeta {
                seed: 0,
                scale_volume: 0.0,
                scale_hashes: 0.0,
                days,
                n_clients: self.n_clients,
            },
            plan: self.dataset.plan.clone(),
            sessions: sessions.to_day_ordered(),
            tags: TagDb::new(),
        }
    }
}

/// The mirror loopback address of a virtual node: the deployment plan's
/// `198.x.y.z` with the first octet swapped into `127/8`, which Linux binds
/// without any interface configuration.
pub fn mirror_addr(id: u16) -> Ipv4Addr {
    let o = node_ip(id).octets();
    Ipv4Addr::new(127, o[1], o[2], o[3])
}

struct ListenerEntry {
    sock: TcpListener,
    honeypot: u16,
    protocol: Protocol,
}

struct Conn {
    sock: TcpStream,
    peer_ip: Ip4,
    gen: u32,
    sess: SessionConn,
    outbuf: Vec<u8>,
    out_pos: usize,
    deadline: Instant,
    draining: bool,
    interest: u32,
}

/// A running farm. Shut it down to obtain the [`FarmOutput`].
pub struct LiveFarm {
    nodes: Vec<NodeAddrs>,
    stats: FarmStats,
    stop: Arc<AtomicBool>,
    reactor: Option<std::thread::JoinHandle<FarmOutput>>,
}

impl LiveFarm {
    /// Bind every node's listeners and start the reactor thread.
    pub fn start(config: FarmConfig) -> std::io::Result<LiveFarm> {
        let stats = FarmStats::new();
        let stop = Arc::new(AtomicBool::new(false));
        let mut listeners = Vec::with_capacity(config.nodes as usize * 2);
        let mut nodes = Vec::with_capacity(config.nodes as usize);
        for id in 0..config.nodes {
            let ip = mirror_addr(id);
            let ssh = TcpListener::bind(SocketAddrV4::new(ip, config.ssh_port))?;
            let telnet = TcpListener::bind(SocketAddrV4::new(ip, config.telnet_port))?;
            ssh.set_nonblocking(true)?;
            telnet.set_nonblocking(true)?;
            nodes.push(NodeAddrs {
                id,
                ssh: ssh.local_addr()?,
                telnet: telnet.local_addr()?,
            });
            listeners.push(ListenerEntry {
                sock: ssh,
                honeypot: id,
                protocol: Protocol::Ssh,
            });
            listeners.push(ListenerEntry {
                sock: telnet,
                honeypot: id,
                protocol: Protocol::Telnet,
            });
        }

        let reactor = {
            let stats = stats.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("hf-wire-reactor".into())
                .spawn(move || Reactor::new(listeners, config, stats, stop).run())?
        };

        Ok(LiveFarm {
            nodes,
            stats,
            stop,
            reactor: Some(reactor),
        })
    }

    /// Bound addresses, by node.
    pub fn nodes(&self) -> &[NodeAddrs] {
        &self.nodes
    }

    /// Live counters (shared handle).
    pub fn stats(&self) -> FarmStats {
        self.stats.clone()
    }

    /// Graceful drain: stop accepting, ingest every open session's record,
    /// and return the completed output. Zero record loss — see the module
    /// docs for the ordering argument.
    pub fn shutdown(mut self) -> FarmOutput {
        self.stop.store(true, Ordering::SeqCst);
        let reactor = self.reactor.take().expect("shutdown called once");
        reactor.join().expect("wire reactor panicked")
    }
}

impl Drop for LiveFarm {
    fn drop(&mut self) {
        // A dropped (not shut down) farm must not leave threads spinning.
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

struct Reactor {
    ep: Epoll,
    listeners: Vec<ListenerEntry>,
    config: FarmConfig,
    /// Node `n`'s honeypot config at index `n`, shared with every
    /// connection the node accepts.
    configs: Vec<Arc<HoneypotConfig>>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u32,
    per_ip: HashMap<Ip4, u32>,
    stats: FarmStats,
    stop: Arc<AtomicBool>,
    collector: Collector,
    /// Distinct client addresses ingested.
    clients: HashSet<Ip4>,
    /// Ingested records, kept only under [`FarmConfig::keep_records`].
    records: Vec<SessionRecord>,
}

impl Reactor {
    fn new(
        listeners: Vec<ListenerEntry>,
        config: FarmConfig,
        stats: FarmStats,
        stop: Arc<AtomicBool>,
    ) -> Reactor {
        let world = World::build(0, &WorldConfig::tiny());
        Reactor {
            ep: Epoll::new().expect("epoll_create1"),
            listeners,
            configs: HoneypotConfig::per_node(
                (0..config.nodes).map(|n| SystemProfile::for_node(n as u32)),
            ),
            config,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            per_ip: HashMap::new(),
            stats,
            stop,
            collector: Collector::new(&world, FarmPlan::paper()),
            clients: HashSet::new(),
            records: Vec::new(),
        }
    }

    fn run(mut self) -> FarmOutput {
        let _span = hf_obs::span!("wire.reactor");
        for (i, l) in self.listeners.iter().enumerate() {
            self.ep
                .add(l.sock.as_raw_fd(), epoll::IN, LISTENER_FLAG | i as u64)
                .expect("register listener");
        }
        let mut events = [epoll::Event::zeroed(); 256];
        loop {
            if self.stop.load(Ordering::SeqCst) {
                self.drain_all();
                break;
            }
            let n = self.ep.wait(&mut events, TICK_MS).unwrap_or(0);
            for ev in events.iter().take(n) {
                let token = ev.token();
                if token & LISTENER_FLAG != 0 {
                    self.accept_from((token & !LISTENER_FLAG) as usize);
                } else {
                    self.handle_conn_event(token, ev.readiness());
                }
            }
            self.sweep_deadlines();
        }
        hf_obs::flush();
        FarmOutput {
            dataset: self.collector.finish(),
            records: self.records,
            n_clients: self.clients.len() as u64,
            stats: self.stats,
        }
    }

    fn ingest(&mut self, rec: SessionRecord) {
        self.collector.ingest(&rec);
        self.clients.insert(rec.client_ip);
        self.stats.on_ingest();
        if self.config.keep_records {
            self.records.push(rec);
        }
    }

    fn accept_from(&mut self, idx: usize) {
        loop {
            let (sock, peer) = match self.listeners[idx].sock.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // EMFILE and friends: stop accepting this wake; the
                // level-triggered listener re-reports next tick.
                Err(_) => break,
            };
            self.stats.on_accept();
            let peer_ip = match peer.ip() {
                std::net::IpAddr::V4(v4) => Ip4::from(v4),
                std::net::IpAddr::V6(v6) => v6
                    .to_ipv4_mapped()
                    .map(Ip4::from)
                    .unwrap_or(Ip4::new(0, 0, 0, 0)),
            };
            if !admit(&mut self.per_ip, peer_ip, self.config.per_ip_cap) {
                // Documented policy: over-cap connections are closed at
                // accept and never get a session record.
                self.stats.on_reject_ip_cap();
                drop(sock);
                continue;
            }
            if sock.set_nonblocking(true).is_err() {
                // Can't drive this socket; treat as a rejection.
                release(&mut self.per_ip, peer_ip);
                self.stats.on_reject_ip_cap();
                continue;
            }
            let _ = sock.set_nodelay(true);
            let honeypot = self.listeners[idx].honeypot;
            let protocol = self.listeners[idx].protocol;
            let (sess, greeting) = SessionConn::new(ConnParams {
                honeypot,
                protocol,
                config: self.configs[honeypot as usize].clone(),
                timing: self.config.timing,
                stats: self.stats.clone(),
                peer_ip,
                peer_port: peer.port(),
            });
            self.stats.conn_opened();
            let deadline = Instant::now()
                + Duration::from_secs(sess.read_deadline_secs(self.config.wall_timeout_secs) as u64);
            let gen = self.next_gen;
            self.next_gen = self.next_gen.wrapping_add(1);
            let mut conn = Conn {
                sock,
                peer_ip,
                gen,
                sess,
                outbuf: greeting,
                out_pos: 0,
                deadline,
                draining: false,
                interest: epoll::IN | epoll::RDHUP,
            };
            flush_out(&mut conn);
            if conn.out_pos < conn.outbuf.len() {
                conn.interest |= epoll::OUT;
            }
            let slot = match self.free.pop() {
                Some(s) => s,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            let token = (slot as u64) | ((gen as u64) << 32);
            if self
                .ep
                .add(conn.sock.as_raw_fd(), conn.interest, token)
                .is_err()
            {
                // Registration failure is a rejection: close, account.
                self.stats.conn_closed();
                release(&mut self.per_ip, peer_ip);
                self.stats.on_reject_ip_cap();
                self.free.push(slot);
                continue;
            }
            self.conns[slot] = Some(conn);
        }
    }

    fn handle_conn_event(&mut self, token: u64, readiness: u32) {
        let slot = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // already closed this wake
        };
        if conn.gen != gen {
            return; // slot reused; stale event
        }
        if readiness & epoll::OUT != 0 {
            flush_out(conn);
            if conn.out_pos >= conn.outbuf.len() {
                if conn.draining {
                    self.close(slot);
                    return;
                }
                let conn = self.conns[slot].as_mut().expect("checked");
                conn.interest &= !epoll::OUT;
                let token = (slot as u64) | ((conn.gen as u64) << 32);
                let _ = self.ep.modify(conn.sock.as_raw_fd(), conn.interest, token);
            }
        }
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.draining {
            // Draining connections only flush; errors/hangups just close.
            if readiness & (epoll::ERR | epoll::HUP) != 0 {
                self.close(slot);
            }
            return;
        }
        if readiness & (epoll::IN | epoll::RDHUP | epoll::HUP | epoll::ERR) != 0 {
            self.read_conn(slot);
        }
    }

    fn read_conn(&mut self, slot: usize) {
        let mut buf = [0u8; 4096];
        for _ in 0..READS_PER_WAKE {
            let conn = match self.conns.get_mut(slot).and_then(Option::as_mut) {
                Some(c) if !c.draining => c,
                _ => return,
            };
            match conn.sock.read(&mut buf) {
                Ok(0) => {
                    let rec = conn.sess.on_eof();
                    self.finish_conn(slot, rec);
                    return;
                }
                Ok(n) => {
                    let mut reply = Vec::new();
                    let finished = conn.sess.on_input(&buf[..n], &mut reply);
                    if !reply.is_empty() {
                        conn.outbuf.extend_from_slice(&reply);
                        flush_out(conn);
                    }
                    conn.deadline = Instant::now()
                        + Duration::from_secs(
                            conn.sess.read_deadline_secs(self.config.wall_timeout_secs) as u64,
                        );
                    if let Some(rec) = finished {
                        self.finish_conn(slot, rec);
                        return;
                    }
                    let conn = self.conns[slot].as_mut().expect("checked");
                    if conn.out_pos < conn.outbuf.len() && conn.interest & epoll::OUT == 0 {
                        conn.interest |= epoll::OUT;
                        let token = (slot as u64) | ((conn.gen as u64) << 32);
                        let _ = self.ep.modify(conn.sock.as_raw_fd(), conn.interest, token);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.stats.on_read_error();
                    let rec = conn.sess.on_eof();
                    self.finish_conn(slot, rec);
                    return;
                }
            }
        }
    }

    /// The session produced its record: flush the final reply bytes,
    /// ingest, then either close now or linger to flush what is left.
    fn finish_conn(&mut self, slot: usize, rec: SessionRecord) {
        flush_out(self.conns[slot].as_mut().expect("finishing live conn"));
        self.ingest(rec);
        let conn = self.conns[slot].as_mut().expect("finishing live conn");
        if conn.out_pos >= conn.outbuf.len() {
            self.close(slot);
            return;
        }
        conn.draining = true;
        conn.deadline = Instant::now() + Duration::from_secs(DRAIN_SECS);
        conn.interest = epoll::OUT;
        let token = (slot as u64) | ((conn.gen as u64) << 32);
        let _ = self.ep.modify(conn.sock.as_raw_fd(), conn.interest, token);
    }

    fn close(&mut self, slot: usize) {
        let conn = self.conns[slot].take().expect("closing live conn");
        let _ = self.ep.del(conn.sock.as_raw_fd());
        release(&mut self.per_ip, conn.peer_ip);
        self.stats.conn_closed();
        self.free.push(slot);
    }

    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if now < conn.deadline {
                continue;
            }
            if conn.draining {
                self.close(slot);
            } else {
                let rec = conn.sess.on_wall_timeout();
                self.finish_conn(slot, rec);
            }
        }
    }

    /// Shutdown drain: every live session's record is ingested before its
    /// socket closes.
    fn drain_all(&mut self) {
        let _span = hf_obs::span!("wire.drain");
        for l in self.listeners.drain(..) {
            let _ = self.ep.del(l.sock.as_raw_fd());
        }
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if !conn.draining {
                let rec = conn.sess.on_eof();
                flush_out(conn); // best-effort final bytes
                self.ingest(rec);
            }
            self.close(slot);
        }
    }
}

/// Count one more open connection from `ip`, unless it already holds
/// `cap`. Only IPs with open connections have an entry, so the table stays
/// as small as the set of live peers.
fn admit(per_ip: &mut HashMap<Ip4, u32>, ip: Ip4, cap: u32) -> bool {
    let open = per_ip.get(&ip).copied().unwrap_or(0);
    if open >= cap {
        return false;
    }
    per_ip.insert(ip, open + 1);
    true
}

/// Undo one [`admit`]; the entry goes when its count reaches zero.
fn release(per_ip: &mut HashMap<Ip4, u32>, ip: Ip4) {
    if let Entry::Occupied(mut open) = per_ip.entry(ip) {
        *open.get_mut() -= 1;
        if *open.get() == 0 {
            open.remove();
        }
    }
}

/// Write as much of the pending output as the socket takes right now.
fn flush_out(conn: &mut Conn) {
    while conn.out_pos < conn.outbuf.len() {
        match conn.sock.write(&conn.outbuf[conn.out_pos..]) {
            Ok(0) => break,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break, // WouldBlock or a dead peer; either way, later/never
        }
    }
    if conn.out_pos >= conn.outbuf.len() {
        conn.outbuf.clear();
        conn.out_pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::run_script;
    use hf_honeypot::EndReason;

    fn virtual_farm(nodes: u16) -> LiveFarm {
        LiveFarm::start(FarmConfig {
            nodes,
            timing: Timing::Virtual,
            keep_records: true,
            ..FarmConfig::default()
        })
        .expect("farm starts")
    }

    #[test]
    fn mirror_addrs_follow_the_deployment_plan() {
        assert_eq!(mirror_addr(0), Ipv4Addr::new(127, 18, 0, 1));
        // node_ip keeps the same lower octets.
        assert_eq!(node_ip(0).octets()[1..], mirror_addr(0).octets()[1..]);
        assert_eq!(node_ip(220).octets()[1..], mirror_addr(220).octets()[1..]);
    }

    #[test]
    fn end_to_end_ssh_session_lands_in_dataset() {
        let farm = virtual_farm(2);
        let addr = farm.nodes()[1].ssh;
        let reply = run_script(
            addr,
            "@hfs client 203.0.113.50 40100\nUSER root\nPASS pw\nuname -a\nEXIT\n",
            Duration::from_secs(10),
        )
        .expect("session runs");
        let text = String::from_utf8_lossy(&reply);
        assert!(text.contains("AUTH-OK"), "{text}");
        // Ingested before the socket closed, so before the client saw EOF.
        assert_eq!(farm.stats().ingested(), 1);
        let out = farm.shutdown();
        assert_eq!(out.records.len(), 1);
        let rec = &out.records[0];
        assert_eq!(rec.honeypot, 1);
        assert_eq!(rec.client_ip, Ip4::new(203, 0, 113, 50));
        assert_eq!(rec.ended_by, EndReason::ClientClose);
        assert_eq!(rec.commands.len(), 1);
        assert_eq!(out.dataset.len(), 1);
        assert_eq!(out.n_clients, 1);
        assert!(out.stats.accounting_balanced());
    }

    #[test]
    fn per_ip_table_holds_only_live_peers() {
        let ip = Ip4::new(203, 0, 113, 7);
        let mut per_ip = HashMap::new();
        assert!(admit(&mut per_ip, ip, 2));
        assert!(admit(&mut per_ip, ip, 2));
        assert!(!admit(&mut per_ip, ip, 2));
        release(&mut per_ip, ip);
        release(&mut per_ip, ip);
        assert!(per_ip.is_empty());
        assert!(!admit(&mut per_ip, ip, 0));
        assert!(per_ip.is_empty());
    }

    #[test]
    fn shutdown_with_no_traffic_is_clean_and_empty() {
        let farm = virtual_farm(1);
        let out = farm.shutdown();
        assert_eq!(out.dataset.len(), 0);
        assert_eq!(out.stats.accepted(), 0);
        assert!(out.stats.accounting_balanced());
    }

    #[test]
    fn snapshot_roundtrips_through_hfstore() {
        let farm = virtual_farm(1);
        let addr = farm.nodes()[0].ssh;
        run_script(
            addr,
            "@hfs start 4 100\nUSER root\nPASS pw\nEXIT\n",
            Duration::from_secs(10),
        )
        .expect("session runs");
        let out = farm.shutdown();
        let snap = out.to_snapshot();
        assert_eq!(snap.meta.days, 5, "max observed day + 1");
        let dir = std::env::temp_dir().join(format!("hf_wire_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("farm.hfstore");
        snap.write_file(&path).expect("snapshot writes");
        let loaded = Snapshot::read_file(&path).expect("snapshot loads");
        assert_eq!(loaded.sessions.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

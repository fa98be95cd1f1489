//! `wire-table1`: the live farm over loopback TCP. An in-process
//! `LiveFarm` (61 nodes, virtual session timing) is driven closed-loop by a
//! few blocking client threads: each connects, plays one scenario script,
//! half-closes, reads to the server's EOF, and only then takes its next
//! session. The sessions follow a seeded 1,000-slot schedule weighted as
//! the paper's Table 1, so about 70 % are scans and failed logins that never
//! reach the shell.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use honeyfarm::core::{classify, Category};
use honeyfarm::geo::Ip4;
use honeyfarm::proto::Protocol;
use honeyfarm::testkit::scenario::classify_record;
use honeyfarm::testkit::Scenario;
use honeyfarm::wire::{wire_script_as, FarmConfig, FarmOutput, LiveFarm, NodeAddrs, Timing};

use super::{Config, Rep, Verdict, Workload};
use crate::ledger::Ledger;
use crate::metrics::SCENARIOS;
use crate::procfs::cpu_seconds;
use crate::stats::percentile;

/// The scripts, in the order of [`SCENARIOS`].
const SOURCES: [&str; 8] = [
    include_str!("../../../tests/scenarios/scan_no_cred.hfs"),
    include_str!("../../../tests/scenarios/ssh_fail_close.hfs"),
    include_str!("../../../tests/scenarios/telnet_bruteforce.hfs"),
    include_str!("../../../tests/scenarios/no_cmd_idle.hfs"),
    include_str!("../../../tests/scenarios/recon_cmd.hfs"),
    include_str!("../../../tests/scenarios/trojan_key.hfs"),
    include_str!("../../../tests/scenarios/mirai_download.hfs"),
    include_str!("../../../tests/scenarios/tftp_download.hfs"),
];

/// Enough nodes that every script reaches the honeypot it names (0..=60).
const NODES: u16 = 61;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Blocking clients: each attacker waits for the server, so more clients
/// than cores would only queue on the processor.
pub fn client_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// SplitMix64: the schedule's only source of randomness.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// 1,000 slots holding each scenario's index as often as its per-mille
/// weight says, shuffled by the seed.
pub fn schedule(seed: u64) -> Vec<u8> {
    let mut slots: Vec<u8> = SCENARIOS
        .iter()
        .enumerate()
        .flat_map(|(i, (_, weight))| vec![i as u8; *weight as usize])
        .collect();
    let mut rng = SplitMix64(seed);
    for i in (1..slots.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        slots.swap(i, j);
    }
    slots
}

/// One completed session as its client saw it; times in µs from `connect`.
struct Session {
    scenario: u8,
    connected_us: f64,
    first_byte_us: f64,
    done_us: f64,
    bytes_in: u64,
}

#[derive(Default)]
struct ClientLog {
    sessions: Vec<Session>,
    connect_errors: u64,
    io_errors: u64,
}

/// The last repetition, kept for the untimed checks.
struct Last {
    logs: Vec<ClientLog>,
    output: FarmOutput,
    cpu_user_s: f64,
    cpu_sys_s: f64,
}

pub struct WireTable1 {
    scenarios: Vec<Scenario>,
    /// Taxonomy class each scenario's record falls in.
    categories: Vec<Category>,
    schedule: Vec<u8>,
    sessions: usize,
    seed: u64,
    last: Option<Last>,
}

impl WireTable1 {
    pub fn set_up(cfg: &Config) -> Self {
        let scenarios = scenarios();
        let categories = scenarios
            .iter()
            .map(|sc| classify_record(&sc.replay()))
            .collect();
        WireTable1 {
            scenarios,
            categories,
            schedule: schedule(cfg.seed),
            sessions: cfg.wire_sessions,
            seed: cfg.seed,
            last: None,
        }
    }

    fn scenario_of(&self, session: usize) -> u8 {
        self.schedule[session % self.schedule.len()]
    }

    /// A client address no other session of the repetition uses.
    fn identity(&self, session: usize) -> (Ip4, u16) {
        let i = session.wrapping_add(self.seed as usize) & 0xFF_FFFF;
        let ip = Ip4::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
        (ip, 40000 + (i % 20000) as u16)
    }

    fn client(&self, nodes: &[NodeAddrs], next: &AtomicUsize) -> ClientLog {
        let mut log = ClientLog::default();
        loop {
            // Only hands out indices; the sessions themselves share nothing.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= self.sessions {
                return log;
            }
            let scenario = self.scenario_of(i);
            let sc = &self.scenarios[scenario as usize];
            let node = nodes[sc.honeypot as usize];
            let addr = match sc.protocol {
                Protocol::Ssh => node.ssh,
                Protocol::Telnet => node.telnet,
            };
            let (ip, port) = self.identity(i);
            let script = wire_script_as(sc, ip, port);
            match play(addr, scenario, &script) {
                Ok(session) => log.sessions.push(session),
                Err(Failed::Connect) => log.connect_errors += 1,
                Err(Failed::Io) => log.io_errors += 1,
            }
        }
    }

    fn rep(&mut self, out: &Path, l: &mut Ledger) -> Rep {
        let (user0, sys0) = cpu_seconds();
        let farm = l.time("wire.farm_start", |_| {
            LiveFarm::start(FarmConfig {
                nodes: NODES,
                timing: Timing::Virtual,
                per_ip_cap: 1 << 30,
                wall_timeout_secs: 600,
                ..FarmConfig::default()
            })
            .expect("loopback listeners bind")
        });
        let nodes = farm.nodes().to_vec();
        let next = AtomicUsize::new(0);
        let logs: Vec<ClientLog> = l.time("wire.drive", |_| {
            std::thread::scope(|s| {
                let clients: Vec<_> = (0..client_count())
                    .map(|_| s.spawn(|| self.client(&nodes, &next)))
                    .collect();
                clients
                    .into_iter()
                    .map(|c| c.join().expect("client thread ran to its end"))
                    .collect()
            })
        });
        let output = l.time("wire.shutdown", |_| farm.shutdown());
        l.time("wire.to_snapshot", |_| {
            std::fs::create_dir_all(out).expect("output directory is writable");
            output
                .to_snapshot()
                .write_file(out.join("drain.hfstore"))
                .expect("drain snapshot is writable")
        });
        let (user1, sys1) = cpu_seconds();
        let rep = Rep {
            attempted: self.sessions as u64,
            failed: logs.iter().map(|c| c.connect_errors + c.io_errors).sum(),
            latencies_us: logs
                .iter()
                .flat_map(|c| c.sessions.iter().map(|s| s.done_us))
                .collect(),
            layer: Vec::new(),
        };
        self.last = Some(Last {
            logs,
            output,
            cpu_user_s: user1 - user0,
            cpu_sys_s: sys1 - sys0,
        });
        rep
    }
}

enum Failed {
    Connect,
    Io,
}

/// Play one script, as `hf_wire::client::run_script` does, keeping the
/// times instead of the bytes.
fn play(addr: SocketAddr, scenario: u8, script: &str) -> Result<Session, Failed> {
    let io = |_| Failed::Io;
    let start = Instant::now();
    let mut sock = TcpStream::connect(addr).map_err(|_| Failed::Connect)?;
    let connected_us = micros(start);
    sock.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    sock.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let _ = sock.set_nodelay(true);
    match sock.write_all(script.as_bytes()) {
        Ok(()) => {}
        // The server may end the session mid-script; that is an ending.
        Err(e) if matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) => {}
        Err(_) => return Err(Failed::Io),
    }
    let _ = sock.shutdown(Shutdown::Write);
    let mut buf = [0u8; 4096];
    let (mut bytes_in, mut first_byte_us) = (0u64, None);
    loop {
        match sock.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                first_byte_us.get_or_insert_with(|| micros(start));
                bytes_in += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(_) => return Err(Failed::Io),
        }
    }
    let done_us = micros(start);
    Ok(Session {
        scenario,
        connected_us,
        first_byte_us: first_byte_us.unwrap_or(done_us),
        done_us,
        bytes_in,
    })
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// Nearest-rank percentile of unsorted samples; 0 if there are none.
fn pct(mut values: Vec<f64>, p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    percentile(&values, p)
}

impl Workload for WireTable1 {
    /// There is no library entry point that runs this loop, so both ways are
    /// the same code; untraced, the ledger is off.
    fn one_call(&mut self, out: &Path) -> Rep {
        self.rep(out, &mut Ledger::off())
    }

    fn staged(&mut self, out: &Path, l: &mut Ledger) -> Rep {
        self.rep(out, l)
    }

    fn verify(&mut self, _out: &Path, _digests: &[(String, String)]) -> Verdict {
        let last = self.last.take().expect("a repetition ran");
        let stats = &last.output.stats;
        let n = self.sessions as u64;
        let sessions: Vec<&Session> = last.logs.iter().flat_map(|c| &c.sessions).collect();
        let connect_errors: u64 = last.logs.iter().map(|c| c.connect_errors).sum();
        let driven = n - connect_errors;
        let completed = sessions.len() as u64;

        let mut errors = Vec::new();
        if !stats.accounting_balanced() {
            errors.push("farm accounting is unbalanced: accepted != ingested + rejected".into());
        }
        if completed != driven || stats.accepted() != driven || driven != n {
            errors.push(format!(
                "asked for {n} sessions: driven {driven}, completed {completed}, accepted {}",
                stats.accepted()
            ));
        }
        if last.output.n_clients != n {
            errors.push(format!(
                "{n} sessions with distinct client addresses, farm saw {} clients",
                last.output.n_clients
            ));
        }
        let mut expected = [0u64; 5];
        for i in 0..self.sessions {
            expected[self.categories[self.scenario_of(i) as usize] as usize] += 1;
        }
        let mut stored = [0u64; 5];
        for v in last.output.dataset.sessions.iter() {
            stored[classify(&v) as usize] += 1;
        }
        if stored != expected {
            errors.push(format!(
                "sessions per category: schedule {expected:?}, farm dataset {stored:?}"
            ));
        }

        let per = |total: f64| total * 1e6 / n as f64;
        let mut layer = vec![
            (
                "wire.connect_p50_us".to_string(),
                pct(sessions.iter().map(|s| s.connected_us).collect(), 50.0),
            ),
            (
                "wire.first_byte_p50_us".to_string(),
                pct(sessions.iter().map(|s| s.first_byte_us).collect(), 50.0),
            ),
            (
                "wire.cpu_user_us_per_session".to_string(),
                per(last.cpu_user_s),
            ),
            (
                "wire.cpu_sys_us_per_session".to_string(),
                per(last.cpu_sys_s),
            ),
            (
                "wire.bytes_in_per_session".to_string(),
                sessions.iter().map(|s| s.bytes_in).sum::<u64>() as f64 / n as f64,
            ),
            ("wire.accepted".to_string(), stats.accepted() as f64),
            ("wire.ingested".to_string(), stats.ingested() as f64),
            ("wire.rejected".to_string(), stats.rejected_ip_cap() as f64),
            ("wire.open_peak".to_string(), stats.open_peak() as f64),
        ];
        for (i, (name, _)) in SCENARIOS.iter().enumerate() {
            let of_scenario = sessions
                .iter()
                .filter(|s| s.scenario as usize == i)
                .map(|s| s.done_us)
                .collect();
            layer.push((
                format!("wire.session_p50_us.{name}"),
                pct(of_scenario, 50.0),
            ));
        }
        Verdict { errors, layer }
    }
}

/// The eight committed scenarios, parsed, in the order of [`SCENARIOS`].
pub fn scenarios() -> Vec<Scenario> {
    SOURCES
        .iter()
        .zip(SCENARIOS)
        .map(|(src, (name, _))| {
            let sc = Scenario::parse(src).expect("committed scenario parses");
            assert_eq!(sc.name, name, "SOURCES and SCENARIOS list the same order");
            assert!(sc.honeypot < NODES, "every script's honeypot is bound");
            sc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_holds_each_scenario_as_often_as_its_weight() {
        for seed in [0, 1, 379422] {
            let slots = schedule(seed);
            assert_eq!(slots.len(), 1000);
            for (i, (name, weight)) in SCENARIOS.iter().enumerate() {
                let n = slots.iter().filter(|&&s| s as usize == i).count();
                assert_eq!(n, *weight as usize, "{name} at seed {seed}");
            }
        }
    }

    #[test]
    fn schedule_depends_on_the_seed_and_only_on_it() {
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
    }

    #[test]
    fn scripts_are_listed_in_the_order_of_the_weights() {
        assert_eq!(scenarios().len(), SCENARIOS.len());
    }
}

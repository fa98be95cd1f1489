//! Graceful shutdown under load: with N sessions mid-flight, `shutdown()`
//! must drain every one of them into the collector — zero record loss —
//! and the final snapshot must load cleanly.
//!
//! The accounting oracle is checked twice: against the farm's own
//! [`FarmStats`] and against the process-global `hf-obs` counters the wire
//! layer mirrors into. The obs registry is process-wide, so the tests here
//! run one at a time (`serial`) and the counting test starts from a clean
//! registry.
//!
//! The drained dataset, and the snapshot it writes, must fold to the
//! independent reference's measures of the records the farm kept
//! (`hf_testkit::reference`, resolving clients in the live collector's
//! seed-0 tiny world); sessions that arrive out of day order are written
//! in start order.

use std::io::Cursor;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use honeyfarm::cluster::{extract, features_from_snapshot_stream};
use honeyfarm::geo::{World, WorldConfig};
use honeyfarm::prelude::*;
use honeyfarm::testkit::{diff_reference, project, Measures, Scenario};
use honeyfarm::wire::{run_script, wire_script, FarmConfig, LiveFarm, Timing};

const SESSIONS: u64 = 48;

/// One live farm at a time: a second farm would race the obs counters.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn shutdown_mid_load_loses_no_records() {
    let _serial = serial();
    honeyfarm::obs::reset();
    honeyfarm::obs::enable();
    let farm = LiveFarm::start(FarmConfig {
        nodes: 3,
        timing: Timing::Virtual,
        wall_timeout_secs: 600,
        per_ip_cap: 1 << 30,
        keep_records: true,
        ..FarmConfig::default()
    })
    .expect("farm");
    let stats = farm.stats();

    // N concurrent clients authenticate and then hold their sessions open;
    // they are all still mid-session when shutdown hits.
    let mut clients = Vec::new();
    for i in 0..SESSIONS {
        let node = farm.nodes()[(i % 3) as usize];
        let addr = if i % 2 == 0 { node.ssh } else { node.telnet };
        clients.push(std::thread::spawn(move || {
            let mut sock = std::net::TcpStream::connect(addr).expect("connect");
            let script: String = if i % 2 == 0 {
                format!(
                    "@hfs client 10.7.{}.{} 4000\nUSER root\nPASS pw{i}\n",
                    i / 256,
                    i % 256
                )
            } else {
                format!(
                    "@hfs client 10.8.{}.{} 4000\r\nroot\r\npw{i}\r\n",
                    i / 256,
                    i % 256
                )
            };
            sock.write_all(script.as_bytes()).expect("script");
            // Hold the session open; the farm's drain closes it.
            let mut buf = Vec::new();
            let _ = sock.set_read_timeout(Some(Duration::from_secs(10)));
            let _ = std::io::Read::read_to_end(&mut sock, &mut buf);
        }));
    }

    // Wait until every session is accepted and authenticated, so the drain
    // really happens mid-load, then pull the plug.
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.auths_ok() < SESSIONS {
        assert!(Instant::now() < deadline, "clients failed to settle");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(stats.open_now(), SESSIONS as i64, "all sessions open");
    let out = farm.shutdown();
    for c in clients {
        c.join().expect("client thread");
    }

    // Zero loss, farm-stats view.
    assert_eq!(out.stats.accepted(), SESSIONS);
    assert_eq!(out.stats.ingested(), SESSIONS);
    assert_eq!(out.stats.rejected_ip_cap(), 0);
    assert!(out.stats.accounting_balanced());
    assert_eq!(out.records.len(), SESSIONS as usize);
    assert_eq!(out.dataset.len(), SESSIONS as usize);
    assert_eq!(out.n_clients, SESSIONS, "distinct @hfs client identities");
    assert_eq!(out.stats.open_now(), 0, "every socket closed by drain");
    let features = extract(&out.dataset).matrix();
    diff_reference(
        &Measures::of(
            &out.records,
            &World::build(0, &WorldConfig::tiny()),
            &out.dataset.plan,
        ),
        &project(&out.dataset, &Aggregates::compute(&out.dataset), &features),
    )
    .assert_identical();

    // Zero loss, obs-counter view (sessions_ingested + sessions_rejected
    // == sessions_driven).
    let manifest = honeyfarm::obs::manifest("wire_shutdown");
    let counter = |name: &str| manifest.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("wire.accepted"), SESSIONS);
    assert_eq!(
        counter("wire.ingested") + counter("wire.rejected_ip_cap"),
        counter("wire.accepted"),
        "obs accounting: ingested + rejected == driven"
    );
    assert_eq!(counter("wire.auth_ok"), SESSIONS);

    // The drain's snapshot artifact loads cleanly and carries every session.
    let dir = std::env::temp_dir().join(format!("hf_wire_shutdown_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("drain.hfstore");
    out.to_snapshot().write_file(&path).expect("write snapshot");
    let snap = Snapshot::read_file(&path).expect("snapshot loads");
    assert_eq!(snap.sessions.len(), SESSIONS as usize);
    assert_eq!(snap.meta.n_clients, SESSIONS);
    std::fs::remove_dir_all(&dir).ok();
}

/// Two corpus sessions driven in the wrong day order (day 10, then day 3):
/// the collector stores them as they arrive, and the drain snapshot still
/// folds, report and features alike, to the reference's measures of the
/// records the farm kept.
#[test]
fn an_out_of_order_drain_snapshot_folds_like_its_dataset() {
    let _serial = serial();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios");
    let scenarios: Vec<Scenario> = ["mirai_download", "no_cmd_idle"]
        .iter()
        .map(|n| Scenario::load(&dir.join(format!("{n}.hfs"))).expect("scenario parses"))
        .collect();
    assert!(scenarios[0].start.day() > scenarios[1].start.day());
    let farm = LiveFarm::start(FarmConfig {
        nodes: scenarios.iter().map(|sc| sc.honeypot + 1).max().unwrap(),
        timing: Timing::Virtual,
        wall_timeout_secs: 60,
        per_ip_cap: 1 << 30,
        keep_records: true,
        ..FarmConfig::default()
    })
    .expect("farm");
    for sc in &scenarios {
        let node = farm.nodes()[sc.honeypot as usize];
        let addr = match sc.protocol {
            honeyfarm::proto::Protocol::Ssh => node.ssh,
            honeyfarm::proto::Protocol::Telnet => node.telnet,
        };
        run_script(addr, &wire_script(sc), Duration::from_secs(30)).expect("drive");
    }
    let out = farm.shutdown();
    assert_eq!(out.dataset.len(), 2);
    assert!(
        !out.dataset.sessions.is_day_ordered(),
        "stored as they arrived"
    );

    let mut bytes = Vec::new();
    out.to_snapshot().write_to(&mut bytes).expect("encode");
    let folded = FoldOutput::from_snapshot_stream(Cursor::new(&bytes)).expect("report fold");
    let (_, streamed) = features_from_snapshot_stream(Cursor::new(&bytes)).expect("feature fold");
    diff_reference(
        &Measures::of(
            &out.records,
            &World::build(0, &WorldConfig::tiny()),
            &out.dataset.plan,
        ),
        &project(&folded.dataset, &folded.aggregates, &streamed.matrix()),
    )
    .assert_identical();
}

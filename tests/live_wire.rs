//! Wire-level conformance: every `.hfs` scenario replayed over a live
//! loopback socket produces a session record, event log, and taxonomy
//! classification *identical* to the simulator path (`Scenario::replay`).
//!
//! This is the proof that `hf-wire` exposes the same honeypot the paper's
//! pipeline measures: the bytes travel through a real TCP connection, the
//! epoll reactor, Telnet/SSH framing, and the reactor's collector — and come
//! out bit-for-bit equal to the in-process replay under the testkit's
//! field-level diff oracles.

use std::path::PathBuf;
use std::time::Duration;

use honeyfarm::farm::{Collector, FarmPlan};
use honeyfarm::geo::{World, WorldConfig};
use honeyfarm::testkit::oracle::diff_datasets;
use honeyfarm::testkit::scenario::classify_record;
use honeyfarm::testkit::{check_golden, Scenario};
use honeyfarm::wire::{run_script, wire_script, FarmConfig, LiveFarm, Timing};

fn corpus() -> Vec<(PathBuf, Scenario)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios");
    let paths = Scenario::paths_in(&dir);
    assert!(!paths.is_empty(), "scenario corpus is empty");
    let load = |p: PathBuf| {
        let sc = Scenario::load(&p).expect("scenario parses");
        (p, sc)
    };
    paths.into_iter().map(load).collect()
}

/// A farm sized and configured so the wire path is bit-comparable to
/// `Scenario::replay()`: script-driven timing and one node per scenario
/// honeypot index. Each node runs its own machine profile, as the replay of
/// a scenario pinned to that node does.
fn conformance_farm(nodes: u16) -> LiveFarm {
    LiveFarm::start(FarmConfig {
        nodes,
        timing: Timing::Virtual,
        keep_records: true,
        wall_timeout_secs: 60,
        per_ip_cap: 1 << 30,
        ..FarmConfig::default()
    })
    .expect("start farm")
}

#[test]
fn every_scenario_is_bit_identical_over_the_wire() {
    let corpus = corpus();
    let nodes = corpus.iter().map(|(_, sc)| sc.honeypot + 1).max().unwrap();
    let farm = conformance_farm(nodes);
    let timeout = Duration::from_secs(30);

    // Drive each scenario over a real socket, in deterministic order; the
    // collector ingests sequentially so record order matches drive order.
    let mut expected = Vec::new();
    for (path, sc) in &corpus {
        let addr = match sc.protocol {
            honeyfarm::proto::Protocol::Ssh => farm.nodes()[sc.honeypot as usize].ssh,
            honeyfarm::proto::Protocol::Telnet => farm.nodes()[sc.honeypot as usize].telnet,
        };
        let script = wire_script(sc);
        run_script(addr, &script, timeout)
            .unwrap_or_else(|e| panic!("{}: socket error {e}", path.display()));
        expected.push(sc.replay());
    }
    let out = farm.shutdown();
    assert!(out.stats.accounting_balanced());
    assert_eq!(out.records.len(), corpus.len(), "one record per scenario");

    // Field-level equality, event-log goldens, and taxonomy agreement.
    for (((path, sc), wire_rec), replay_rec) in corpus.iter().zip(&out.records).zip(&expected) {
        assert_eq!(
            wire_rec,
            replay_rec,
            "{}: wire record differs from simulator replay",
            path.display()
        );
        assert_eq!(
            classify_record(wire_rec),
            classify_record(replay_rec),
            "{}: taxonomy class differs",
            path.display()
        );
        let log = honeyfarm::testkit::scenario::render_event_log(&sc.name, wire_rec);
        let golden = path.with_extension("golden");
        check_golden(&golden, &log)
            .unwrap_or_else(|e| panic!("{}: wire event log vs golden: {e}", path.display()));
    }

    // Dataset-level equivalence: the wire collector's columnar output is
    // identical to a collector fed the replay records directly.
    let world = World::build(0, &WorldConfig::tiny());
    let mut collector = Collector::new(&world, FarmPlan::paper());
    for rec in &expected {
        collector.ingest(rec);
    }
    let replay_ds = collector.finish();
    diff_datasets("wire", &out.dataset, "replay", &replay_ds).assert_identical();
}

/// The loopback mirror of the deployment plan keeps per-node identity: a
/// scenario pinned to honeypot N comes back with `honeypot == N` because it
/// really connected to node N's own listener address, and it ran on node N's
/// own machine profile — the second session writes `uname -a` and
/// `/proc/cpuinfo` into files, whose hashes differ between profiles.
#[test]
fn node_identity_survives_the_wire() {
    let farm = conformance_farm(8);
    let scenarios: Vec<Scenario> = [
        "name pin\nprotocol ssh\nhoneypot 7\nlogin root pw\nclose\n",
        "name profile\nprotocol ssh\nhoneypot 7\nlogin root pw\n\
         cmd uname -a > /tmp/u; cat /proc/cpuinfo > /tmp/c\nclose\n",
    ]
    .iter()
    .map(|text| Scenario::parse(text).expect("scenario"))
    .collect();
    for sc in &scenarios {
        run_script(
            farm.nodes()[7].ssh,
            &wire_script(sc),
            Duration::from_secs(10),
        )
        .expect("drive");
    }
    let out = farm.shutdown();
    assert_eq!(out.records.len(), scenarios.len());
    for (rec, sc) in out.records.iter().zip(&scenarios) {
        assert_eq!(rec.honeypot, 7);
        assert_eq!(
            *rec,
            sc.replay(),
            "{}: wire record differs from replay",
            sc.name
        );
    }
}

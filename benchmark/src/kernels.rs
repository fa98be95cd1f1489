//! Kernels timed beside the repetitions of a traced run. `sim.execute_s`
//! cannot be split from outside the library; these give the unit costs of
//! the layers under it (lexer, honeypot state machine, SHA-256), and the
//! no-socket floor of each wire scenario. They do not depend on the
//! workload, so every traced run reports them.

use std::hint::black_box;
use std::time::Instant;

use honeyfarm::hash::Sha256;
use honeyfarm::shell::LineBuf;

use crate::stats::median;
use crate::workloads::wire::scenarios;

const CORPUS: &str = include_str!("../../tests/scenarios/corpus_commands.txt");
const MIB: f64 = 1024.0 * 1024.0;

/// Median of `samples` timings of `f`, in seconds, after a tenth as many
/// untimed calls.
fn median_seconds(samples: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..samples / 10 + 1 {
        f();
    }
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

pub fn measure() -> Vec<(String, f64)> {
    let mut out = Vec::new();

    for sc in scenarios() {
        let s = median_seconds(200, || {
            black_box(sc.replay());
        });
        out.push((format!("honeypot.replay_us.{}", sc.name), s * 1e6));
    }

    let lines: Vec<&str> = CORPUS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut buf = LineBuf::new();
    let s = median_seconds(200, || {
        let mut words = 0usize;
        for line in &lines {
            buf.parse(black_box(line));
            for stmt in buf.statements() {
                for cmd in stmt.commands() {
                    words += cmd.argv().len();
                }
            }
        }
        black_box(words);
    });
    out.push(("shell.lex_ns_per_line".into(), s * 1e9 / lines.len() as f64));

    // One large body (a snapshot chunk is 3 MiB), and the batch of small
    // ones a day's distinct dropper bodies make.
    let large = vec![0xA5u8; 4 << 20];
    let s = median_seconds(20, || {
        black_box(Sha256::digest(black_box(&large)));
    });
    out.push(("hash.sha256_mib_per_s.4mib".into(), 4.0 / s));

    let small: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 600]).collect();
    let mut digests = Vec::with_capacity(small.len());
    let s = median_seconds(200, || {
        digests.clear();
        Sha256::digest_many(small.iter().map(|b| black_box(b.as_slice())), &mut digests);
        black_box(&digests);
    });
    out.push((
        "hash.sha256_mib_per_s.600b".into(),
        (64.0 * 600.0 / MIB) / s,
    ));
    out
}

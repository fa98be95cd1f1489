//! `hfbench all` and `hfbench repeat`: every workload, each run in a child
//! process so that peak memory is per workload, collected into one table
//! and one JSON document.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::{per_layer, END_TO_END, WORKLOADS};
use crate::workloads::wire::client_count;
use crate::Sizes;

/// Counts that must not differ between two sets of runs on the same seed.
const EXACT: [&str; 7] = [
    "stored_bytes_per_session",
    "sim.sessions",
    "farm.rows",
    "farm.chunks",
    "cluster.clients",
    "cluster.k",
    "wire.accepted",
];

#[derive(Clone)]
struct Value {
    unit: String,
    value: f64,
    /// `q1`, `q3`, `n` and `best` when the value is a median of samples.
    spread: Option<(f64, f64, f64, f64)>,
}

#[derive(Default)]
struct WorkloadResult {
    /// Metric → value, end-to-end and per-layer together (names differ).
    metrics: BTreeMap<String, Value>,
    /// `(untraced, traced)` digest per output part.
    digests: BTreeMap<String, (String, String)>,
}

struct Set {
    workloads: BTreeMap<&'static str, WorkloadResult>,
    ok: bool,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn print_single_core_note() {
    if cores() == 1 {
        println!(
            "# note: one core available: farm.chunk_wait_s and every wire-table1 number \
             are single-core figures (no prefetch overlap, client and reactor share the core)"
        );
    }
}

/// Parse `workload metric unit value [q1=.. q3=.. n=.. best=..]`.
fn parse_metric_line(workload: &str, line: &str) -> Option<(String, Value)> {
    let mut tokens = line.split_whitespace();
    if tokens.next()? != workload {
        return None;
    }
    let name = tokens.next()?.to_string();
    let unit = tokens.next()?.to_string();
    let value = tokens.next()?.parse().ok()?;
    let tagged = |tag: &str, t: Option<&str>| t?.strip_prefix(tag)?.parse::<f64>().ok();
    let spread = (|| {
        Some((
            tagged("q1=", tokens.next())?,
            tagged("q3=", tokens.next())?,
            tagged("n=", tokens.next())?,
            tagged("best=", tokens.next())?,
        ))
    })();
    Some((
        name,
        Value {
            unit,
            value,
            spread,
        },
    ))
}

/// Run one workload in a child; returns false if it failed. Its table
/// lines are echoed, its result line is not.
fn run_child(sizes: &Sizes, workload: &str, trace: bool, into: &mut WorkloadResult) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &sizes.seed.to_string()])
        .args(["--seconds", &sizes.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(
            sizes
                .scale
                .iter()
                .flat_map(|f| ["--scale".to_string(), f.to_string()]),
        )
        .args(sizes.smoke.then_some("--smoke"))
        .stderr(Stdio::inherit())
        .output()
        .expect("child run starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
        if let Some((name, value)) = parse_metric_line(workload, line) {
            into.metrics.insert(name, value);
        } else if let Some(rest) = line.strip_prefix(&format!("# digest {workload} ")) {
            if let Some((part, digest)) = rest.split_once(' ') {
                let slot = into.digests.entry(part.to_string()).or_default();
                *(if trace { &mut slot.1 } else { &mut slot.0 }) = digest.to_string();
            }
        }
    }
    output.status.success()
}

fn run_set(sizes: &Sizes) -> Set {
    let mut set = Set {
        workloads: BTreeMap::new(),
        ok: true,
    };
    for w in &WORKLOADS {
        let result = set.workloads.entry(w.name).or_default();
        for trace in [false, true] {
            if !run_child(sizes, w.name, trace, result) {
                println!(
                    "# FAILED {}: the {} run failed",
                    w.name,
                    if trace { "traced" } else { "untraced" }
                );
                set.ok = false;
            }
        }
        for (part, (plain, traced)) in &result.digests {
            if plain != traced {
                println!(
                    "# FAILED {}: {part} digest differs between the untraced and traced runs",
                    w.name
                );
                set.ok = false;
            }
        }
    }
    // The two snapshot workloads see the same simulated dataset (and
    // `sim-fold` too, when it runs at their scale): what they report about
    // it must not depend on the path the rows took.
    let shared = sizes.scale_of("snapshot-analyze");
    for part in ["report", "cluster"] {
        let seen: Vec<(&str, &String)> = set
            .workloads
            .iter()
            .filter(|(name, _)| sizes.scale_of(name) == shared)
            .filter_map(|(name, r)| Some((*name, &r.digests.get(part)?.0)))
            .collect();
        if seen.windows(2).any(|w| w[0].1 != w[1].1) {
            println!("# FAILED: {part} digest differs between workloads: {seen:?}");
            set.ok = false;
        }
    }
    set
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn environment(sizes: &Sizes) -> Json {
    let preset = sizes.preset();
    Json::obj([
        ("available_parallelism", Json::Num(cores() as f64)),
        (
            "sha_ni",
            Json::Bool(honeyfarm::hash::Sha256::backend_name() == "sha-ni"),
        ),
        ("rustc", Json::str(command_output("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(sizes.seed as f64)),
        ("wire_clients", Json::Num(client_count() as f64)),
        ("smoke", Json::Bool(sizes.smoke)),
        ("scale_sim_fold", Json::Num(sizes.scale_of("sim-fold"))),
        (
            "scale_snapshot",
            Json::Num(sizes.scale_of("snapshot-analyze")),
        ),
        ("days", Json::Num(preset.days.into())),
        (
            "wire_sessions_per_repetition",
            Json::Num(preset.wire_sessions as f64),
        ),
        // The repetitions each value is the median of are its `n`.
        ("seconds_per_run", Json::Num(sizes.seconds)),
        ("min_repetitions", Json::Num(preset.min_reps as f64)),
        ("setups_per_run", Json::Num(preset.setups as f64)),
    ])
}

fn set_json(set: &Set) -> Json {
    // Metrics in the order BENCHMARK.json declares them, not by name.
    let in_order = |r: &WorkloadResult, names: Vec<String>| {
        Json::obj(names.into_iter().filter_map(|name| {
            let v = r.metrics.get(&name)?;
            let mut fields = vec![
                ("value".to_string(), Json::Num(v.value)),
                ("unit".to_string(), Json::str(v.unit.as_str())),
            ];
            if let Some((q1, q3, n, best)) = v.spread {
                fields.push(("q1".into(), Json::Num(q1)));
                fields.push(("q3".into(), Json::Num(q3)));
                fields.push(("n".into(), Json::Num(n)));
                fields.push(("best".into(), Json::Num(best)));
            }
            Some((name, Json::Obj(fields)))
        }))
    };
    Json::obj(set.workloads.iter().map(|(workload, r)| {
        let end_to_end = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        let layers = per_layer().into_iter().map(|m| m.name).collect();
        let digests = Json::obj(
            r.digests
                .iter()
                .map(|(part, (plain, _))| (part.as_str(), Json::str(plain.as_str()))),
        );
        (
            *workload,
            Json::obj([
                ("end_to_end", in_order(r, end_to_end)),
                ("per_layer", in_order(r, layers)),
                ("digests", digests),
            ]),
        )
    }))
}

fn write_document(path: &Path, doc: &Json) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("output directory is writable");
    }
    std::fs::write(path, doc.render_pretty()).expect("JSON document is writable");
    println!("# wrote {}", path.display());
}

pub fn all(sizes: &Sizes, out: &Path) -> bool {
    print_single_core_note();
    let set = run_set(sizes);
    write_document(
        out,
        &Json::obj([
            ("benchmark", Json::str("hfbench")),
            ("correct", Json::Bool(set.ok)),
            ("environment", environment(sizes)),
            ("workloads", set_json(&set)),
        ]),
    );
    set.ok
}

pub fn repeat(sizes: &Sizes, out: &Path) -> bool {
    print_single_core_note();
    println!("# first set");
    let first = run_set(sizes);
    println!("# second set");
    let second = run_set(sizes);
    let mut ok = first.ok && second.ok;
    println!("# workload metric unit first second second/first worse-by bound verdict");
    for w in &WORKLOADS {
        let (a, b) = (&first.workloads[w.name], &second.workloads[w.name]);
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.metrics.get(m.name), b.metrics.get(m.name)) else {
                println!("{} {} missing from a set", w.name, m.name);
                ok = false;
                continue;
            };
            let worse = m.better.worsening(x.value, y.value);
            let within = worse <= m.bound;
            ok &= within;
            println!(
                "{} {} {} {} {} {:.4} {:+.4} {} {}",
                w.name,
                m.name,
                m.unit,
                x.value,
                y.value,
                y.value / x.value,
                worse,
                m.bound,
                if within { "ok" } else { "WORSE" }
            );
        }
        for name in EXACT {
            if let (Some(x), Some(y)) = (a.metrics.get(name), b.metrics.get(name)) {
                if x.value != y.value {
                    println!(
                        "{} {name} is an exact count but read {} then {}",
                        w.name, x.value, y.value
                    );
                    ok = false;
                }
            }
        }
    }
    write_document(
        out,
        &Json::obj([
            ("benchmark", Json::str("hfbench repeat")),
            ("correct", Json::Bool(ok)),
            ("environment", environment(sizes)),
            ("first", set_json(&first)),
            ("second", set_json(&second)),
        ]),
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse_with_and_without_quartiles() {
        let (name, v) = parse_metric_line(
            "sim-fold",
            "sim-fold sessions_per_s 1/s 4.5e5 q1=4.4e5 q3=4.6e5 n=5 best=4.7e5",
        )
        .unwrap();
        assert_eq!(
            (name.as_str(), v.unit.as_str(), v.value),
            ("sessions_per_s", "1/s", 4.5e5)
        );
        assert_eq!(v.spread, Some((4.4e5, 4.6e5, 5.0, 4.7e5)));
        let (_, v) = parse_metric_line("sim-fold", "sim-fold peak_rss_mb MB 61.5").unwrap();
        assert_eq!(v.spread, None);
        assert!(parse_metric_line("sim-fold", "wire-table1 peak_rss_mb MB 61.5").is_none());
        assert!(parse_metric_line("sim-fold", "# digest sim-fold report abc").is_none());
    }

    #[test]
    fn a_regression_past_the_bound_is_told_from_one_within_it() {
        let m = &END_TO_END[1];
        assert_eq!((m.name, m.better.as_str()), ("sessions_per_s", "higher"));
        assert!(m.better.worsening(100.0, 100.0 * (1.0 - m.bound / 2.0)) <= m.bound);
        assert!(m.better.worsening(100.0, 100.0 * (1.0 - m.bound * 2.0)) > m.bound);
    }
}

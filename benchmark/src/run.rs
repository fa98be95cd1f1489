//! One run of one workload in this process: set-up (timed, several times),
//! repetitions until the time is up, checks, and the metrics of the mode
//! asked for — end-to-end with tracing off, per-layer with tracing on.
//! Every value is the median of its samples.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::Json;
use crate::kernels;
use crate::ledger::{Ledger, REP};
use crate::metrics::{per_layer, Better, END_TO_END, WORKLOADS};
use crate::procfs::{cpu_seconds, peak_rss_mb};
use crate::stats::{median, percentile, quartiles};
use crate::workloads::{self, digest_outputs, dir_bytes, Config, Rep, Workload};

/// Variables that make the library run other code than it ships with.
const REFUSED_ENV: [&str; 2] = ["HF_HASH_FORCE_SCALAR", "HF_SNAPSHOT_NO_OVERLAP"];

pub struct Options {
    pub workload: String,
    pub config: Config,
    /// The workload's scratch directory is `work_root/<workload>`.
    pub work_root: PathBuf,
    /// Keep repeating until this many seconds of repetitions have passed.
    pub seconds: f64,
    /// And at least this many times.
    pub min_reps: usize,
    /// How many times to set up (the median is `setup_s`).
    pub setups: usize,
    pub trace: bool,
}

/// One printed metric: the median of its samples.
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub samples: Vec<f64>,
}

impl Measured {
    /// 0 for a layer the workload does not enter.
    pub fn value(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            median(&self.samples)
        }
    }
}

pub struct RunResult {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// What the checks found wrong; empty when the run is correct.
    pub errors: Vec<String>,
    pub metrics: Vec<Measured>,
    /// `(part, digest)` of the outputs every repetition agreed on.
    pub digests: Vec<(String, String)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line the driver reads.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.as_str(),
                        Json::obj([("value", Json::Num(m.value())), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// `workload metric unit value`, one line per metric, with the
    /// quartiles, the sample count and the best sample where there are
    /// several; then the digests.
    pub fn print_table(&self) {
        for m in &self.metrics {
            print!("{} {} {} {}", self.workload, m.name, m.unit, m.value());
            if m.samples.len() > 1 {
                let (q1, q3) = quartiles(&m.samples);
                let pick = match m.better {
                    Better::Lower => f64::min,
                    Better::Higher => f64::max,
                };
                let best = m.samples.iter().copied().reduce(pick).expect("samples");
                print!(" q1={q1} q3={q3} n={} best={best}", m.samples.len());
            }
            println!();
        }
        for (part, digest) in &self.digests {
            println!("# digest {} {part} {digest}", self.workload);
        }
        for e in &self.errors {
            println!("# FAILED {}: {e}", self.workload);
        }
    }
}

/// Checks each repetition against the first one and tallies the outcome.
#[derive(Default)]
struct Tally {
    /// Digests of the first repetition's outputs.
    reference: Option<Vec<(String, String)>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Returns the per-layer values the workload's own check produced. A
    /// repetition that is not `measured` (a warm-up) is checked all the
    /// same, but its operations are not counted.
    fn check(
        &mut self,
        w: &mut dyn Workload,
        out: &Path,
        rep: &Rep,
        what: &str,
        measured: bool,
    ) -> Vec<(String, f64)> {
        let digests = digest_outputs(out);
        let verdict = w.verify(out, &digests);
        let mut errors = verdict.errors;
        let reference = self.reference.get_or_insert_with(|| digests.clone());
        if digests != *reference {
            errors.push(format!(
                "outputs differ from the first repetition's: {digests:?} vs {reference:?}"
            ));
        }
        if rep.failed > 0 {
            errors.push(format!(
                "{} of {} operations failed",
                rep.failed, rep.attempted
            ));
        }
        if measured {
            self.attempted += rep.attempted;
            // A repetition whose check fails has delivered nothing usable.
            self.failed += if errors.is_empty() {
                rep.failed
            } else {
                rep.attempted
            };
        }
        self.errors
            .extend(errors.into_iter().map(|e| format!("{what}: {e}")));
        verdict.layer
    }
}

pub fn run(opts: &Options) -> Result<RunResult, String> {
    // Before anything on disk is touched: the name becomes a path below.
    if !WORKLOADS.iter().any(|w| w.name == opts.workload) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set: it selects another program than the one shipped; unset it"
            ));
        }
    }
    let work = &opts.work_root.join(&opts.workload);
    let _ = std::fs::remove_dir_all(work);
    let out = work.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

    // Set-up: build the inputs and run one repetition that is not measured,
    // so that lazy initialisation and cold caches are paid here. Several
    // times over, each from nothing, for a median; the last one is kept.
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut kept: Option<Box<dyn Workload>> = None;
    for _ in 0..if opts.trace { 1 } else { opts.setups.max(1) } {
        // The previous inputs go before the next are built.
        drop(kept.take());
        let t = Instant::now();
        let mut w = workloads::set_up(&opts.workload, &opts.config, work)
            .expect("the name was checked against the same list");
        let warm_up = w.one_call(&out);
        setup_s.push(t.elapsed().as_secs_f64());
        tally.check(&mut *w, &out, &warm_up, "warm-up", false);
        kept = Some(w);
    }
    let mut w = kept.expect("at least one set-up ran");

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut cpu_us = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut stored = Vec::new();
    let mut staged_walls = Vec::new();
    let mut layer: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut ledger = Ledger::new();
    let started = Instant::now();
    while walls.len() < opts.min_reps.max(1) || started.elapsed().as_secs_f64() < opts.seconds {
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let mut rep = w.one_call(&out);
        let wall = t.elapsed().as_secs_f64();
        let cpu1 = cpu_seconds();
        tally.check(&mut *w, &out, &rep, "one-call repetition", true);
        let done = (rep.attempted - rep.failed).max(1) as f64;
        walls.push(wall);
        rates.push(done / wall);
        cpu_us.push(((cpu1.0 - cpu0.0) + (cpu1.1 - cpu0.1)) * 1e6 / done);
        stored.push(w.stored_bytes(&out) as f64 / done);
        if rep.latencies_us.is_empty() {
            // The batch workloads complete no session on its own: each
            // takes the mean service time, so that the latencies are
            // defined on every workload.
            p50s.push(wall * 1e6 / done);
            p99s.push(wall * 1e6 / done);
        } else {
            rep.latencies_us.sort_by(f64::total_cmp);
            p50s.push(percentile(&rep.latencies_us, 50.0));
            p99s.push(percentile(&rep.latencies_us, 99.0));
        }
        if opts.trace {
            let mark = ledger.mark();
            let rep = ledger.time(REP, |l| w.staged(&out, l));
            let wall = ledger.last_duration(REP);
            staged_walls.push(wall);
            for (name, seconds) in ledger.self_seconds(mark) {
                let (key, value) = if name == REP {
                    ("trace.unattributed_share".to_string(), seconds / wall)
                } else {
                    (format!("{name}_s"), seconds)
                };
                layer.entry(key).or_default().push(value);
            }
            let report_bytes = (
                "core.report_bytes".to_string(),
                dir_bytes(&out.join("report")) as f64,
            );
            let checked = tally.check(&mut *w, &out, &rep, "staged repetition", true);
            for (key, value) in checked.into_iter().chain(rep.layer).chain([report_bytes]) {
                layer.entry(key).or_default().push(value);
            }
        }
    }
    // Before the final checks, which may hold a second copy of the data.
    let rss = peak_rss_mb();
    tally.errors.extend(
        w.final_checks(&out)
            .into_iter()
            .map(|e| format!("final check: {e}")),
    );

    let metrics = if opts.trace {
        for (key, value) in kernels::measure().into_iter().chain(w.beside()) {
            layer.entry(key).or_default().push(value);
        }
        layer.insert(
            "trace.overhead_share".into(),
            vec![median(&staged_walls) / median(&walls) - 1.0],
        );
        ledger
            .write_tsv(&work.join("spans.tsv"))
            .map_err(|e| format!("spans.tsv: {e}"))?;
        per_layer()
            .into_iter()
            .map(|m| Measured {
                samples: layer.remove(&m.name).unwrap_or_default(),
                name: m.name,
                unit: m.unit,
                better: m.better,
            })
            .collect()
    } else {
        let values: [(&str, Vec<f64>); 7] = [
            ("setup_s", setup_s),
            ("sessions_per_s", rates),
            ("cpu_us_per_session", cpu_us),
            ("peak_rss_mb", vec![rss]),
            ("session_p50_us", p50s),
            ("session_p99_us", p99s),
            ("stored_bytes_per_session", stored),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, (name, samples))| {
                assert_eq!(m.name, name, "values are listed in the order of END_TO_END");
                Measured {
                    name: name.to_string(),
                    unit: m.unit,
                    better: m.better,
                    samples,
                }
            })
            .collect()
    };
    // The fixture and outputs are tens of MB; only the span file stays.
    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(work.join("fixture"));
    Ok(RunResult {
        workload: opts.workload.clone(),
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        digests: tally.reference.unwrap_or_default(),
    })
}

/// Where the workloads may write: `benchmark/work` when run from the
/// repository root (as the driver does), `work` when run from `benchmark/`
/// itself.
pub fn work_root() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/work".into()
    } else {
        "work".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_that_is_not_a_workload_leaves_the_disk_alone() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("work/unit-test-run");
        let root = base.join("root");
        std::fs::create_dir_all(&root).unwrap();
        let kept = base.join("kept.txt");
        std::fs::write(&kept, "still here").unwrap();
        let abs = base.to_string_lossy().into_owned();
        // `root/..` is `base`; an absolute name would replace `root` outright.
        for name in [
            "..",
            "../unit-test-run",
            abs.as_str(),
            "no-such-workload",
            "",
        ] {
            let opts = Options {
                workload: name.to_string(),
                config: Config {
                    seed: 1,
                    scale: 0.0002,
                    days: 1,
                    wire_sessions: 1,
                },
                work_root: root.clone(),
                seconds: 0.0,
                min_reps: 1,
                setups: 1,
                trace: false,
            };
            let refused = run(&opts).err().expect("not a workload");
            assert!(refused.contains("unknown workload"), "{name:?}: {refused}");
            assert!(kept.exists() && root.exists(), "{name:?} removed files");
        }
        std::fs::remove_dir_all(&base).unwrap();
    }
}

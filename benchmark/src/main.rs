//! `hfbench` — one end-to-end benchmark for the whole honeyfarm pipeline,
//! with a per-layer ledger measured from outside the library.
//!
//! ```text
//! hfbench run --workload W --seed N --seconds S --trace 0|1 [--scale F] [--smoke]
//!     One workload in this process. Prints `workload metric unit value`
//!     per metric and, as the last line, the result as one JSON object.
//!     Exits 1 if a check fails.
//! hfbench all    [--seed N] [--seconds S] [--scale F] [--smoke] [--out FILE]
//!     Every workload, untraced then traced, each in a process of its own;
//!     writes one JSON document. Exits 1 if any check fails.
//! hfbench repeat [as for all]
//!     `all` twice; fails unless every end-to-end metric of the second set
//!     is within its bound of the first and the exact counts are equal.
//! hfbench manifest
//!     Print BENCHMARK.json as this build defines it.
//! hfbench fixture --seed N --scale F --days D --dir DIR
//!     (the child of `snapshot-analyze`) simulate and write the snapshot.
//! ```
//!
//! See `benchmark/README.md` for what each metric means.

mod json;
mod kernels;
mod ledger;
mod metrics;
mod procfs;
mod run;
mod stats;
mod suite;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;

use workloads::Config;

/// The fixture seed of the repository's goldens and claims table.
const DEFAULT_SEED: u64 = 379422;

/// `--flag value` pairs and bare `--switch`es, checked against what the
/// subcommand accepts.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(argv: &[String], flags: &[&str], switches: &[&str]) -> Args {
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if switches.contains(&arg.as_str()) {
                map.insert(arg.clone(), String::new());
            } else if flags.contains(&arg.as_str()) {
                let value = it
                    .next()
                    .unwrap_or_else(|| usage(&format!("{arg} needs a value")));
                map.insert(arg.clone(), value.clone());
            } else {
                usage(&format!("unknown argument {arg}"));
            }
        }
        Args(map)
    }

    fn has(&self, switch: &str) -> bool {
        self.0.contains_key(switch)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.0.get(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: cannot read {v:?}")))
        })
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: hfbench run --workload W --seed N --seconds S --trace 0|1 [--scale F] [--smoke]\n\
         \x20      hfbench all|repeat [--seed N] [--seconds S] [--scale F] [--smoke] [--out FILE]\n\
         \x20      hfbench manifest\n\
         workloads: {}",
        metrics::WORKLOADS.map(|w| w.name).join(" ")
    );
    exit(2)
}

/// Input sizes and repetition counts. Two constant sets, not flags: numbers
/// taken at different sizes or from a different number of samples do not
/// compare.
pub struct Preset {
    /// Volume scale of `sim-fold` (1.0 is the paper's 402 M sessions).
    pub sim_scale: f64,
    /// Volume scale of the two snapshot workloads: twice the rows, because
    /// they do a fraction of the work per row.
    pub snapshot_scale: f64,
    pub days: u32,
    pub wire_sessions: usize,
    /// Measured repetitions per run, however short `--seconds` is.
    pub min_reps: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

/// What `BENCHMARK.json` is measured at.
const MEASURED: Preset = Preset {
    sim_scale: 0.0025,
    snapshot_scale: 0.005,
    days: 486,
    wire_sessions: 40_000,
    min_reps: 3,
    setups: 3,
};

/// `--smoke`: the smallest sizes that still run every check, a few seconds
/// in all.
const SMOKE: Preset = Preset {
    sim_scale: 0.0002,
    snapshot_scale: 0.0002,
    days: 12,
    wire_sessions: 400,
    min_reps: 1,
    setups: 1,
};

/// What the command line says about a set of runs.
pub struct Sizes {
    pub seed: u64,
    /// Keep repeating until this many seconds of repetitions have passed.
    pub seconds: f64,
    pub smoke: bool,
    /// `--scale`: run every batch workload at this scale, not its preset's.
    pub scale: Option<f64>,
}

impl Sizes {
    fn from(args: &Args) -> Sizes {
        let smoke = args.has("--smoke");
        let seconds = if smoke { 0 } else { metrics::RUN_SECONDS };
        Sizes {
            seed: args.get("--seed").unwrap_or(DEFAULT_SEED),
            seconds: args.get("--seconds").unwrap_or(seconds.into()),
            smoke,
            scale: args.get("--scale"),
        }
    }

    pub fn preset(&self) -> &'static Preset {
        if self.smoke {
            &SMOKE
        } else {
            &MEASURED
        }
    }

    pub fn scale_of(&self, workload: &str) -> f64 {
        let preset = self.preset();
        self.scale.unwrap_or(if workload == "sim-fold" {
            preset.sim_scale
        } else {
            preset.snapshot_scale
        })
    }

    fn config(&self, workload: &str) -> Config {
        Config {
            seed: self.seed,
            scale: self.scale_of(workload),
            days: self.preset().days,
            wire_sessions: self.preset().wire_sessions,
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage("missing subcommand")
    };
    match cmd.as_str() {
        "run" => {
            let args = Args::parse(
                rest,
                &["--workload", "--seed", "--seconds", "--trace", "--scale"],
                &["--smoke"],
            );
            let workload: String = args
                .get("--workload")
                .unwrap_or_else(|| usage("run needs --workload"));
            let sizes = Sizes::from(&args);
            let trace = match args.get::<u8>("--trace") {
                None | Some(0) => false,
                Some(1) => true,
                Some(_) => usage("--trace takes 0 or 1"),
            };
            let opts = run::Options {
                config: sizes.config(&workload),
                workload,
                work_root: run::work_root(),
                seconds: sizes.seconds,
                min_reps: sizes.preset().min_reps,
                setups: sizes.preset().setups,
                trace,
            };
            let result = run::run(&opts).unwrap_or_else(|e| {
                eprintln!("hfbench: {e}");
                exit(2)
            });
            suite::print_single_core_note();
            result.print_table();
            println!("{}", result.to_json().render());
            exit(if result.correct() { 0 } else { 1 });
        }
        "all" | "repeat" => {
            let args = Args::parse(
                rest,
                &["--seed", "--seconds", "--scale", "--out"],
                &["--smoke"],
            );
            let sizes = Sizes::from(&args);
            let out: PathBuf = args
                .get("--out")
                .unwrap_or_else(|| run::work_root().join("hfbench.json"));
            let ok = if cmd == "all" {
                suite::all(&sizes, &out)
            } else {
                suite::repeat(&sizes, &out)
            };
            exit(if ok { 0 } else { 1 });
        }
        "manifest" => print!("{}", metrics::manifest().render_pretty()),
        "fixture" => {
            let args = Args::parse(rest, &["--seed", "--scale", "--days", "--dir"], &[]);
            let need = |flag: &str| -> ! { usage(&format!("fixture needs {flag}")) };
            let config = Config {
                seed: args.get("--seed").unwrap_or_else(|| need("--seed")),
                scale: args.get("--scale").unwrap_or_else(|| need("--scale")),
                days: args.get("--days").unwrap_or_else(|| need("--days")),
                wire_sessions: 0,
            };
            let dir: PathBuf = args.get("--dir").unwrap_or_else(|| need("--dir"));
            workloads::snapshot::write_fixture(&config.sim(), &dir);
        }
        other => usage(&format!("unknown subcommand {other}")),
    }
}

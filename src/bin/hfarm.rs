//! `hfarm` — command-line front door to the honeyfarm reproduction suite.
//!
//! ```text
//! hfarm simulate [--scale F] [--days N] [--seed S] [--out DIR] [--snapshot FILE]
//!                [--metrics DIR]
//!     Simulate the study window, write every table/figure + claims, and
//!     persist the collected run as an hfstore snapshot. Each finished day
//!     is folded into the aggregates and appended to the snapshot as the
//!     loop runs, then retired, so peak memory is bounded by one day's
//!     traffic instead of the whole window. The snapshot file is created
//!     before the run starts.
//! hfarm report   [--out DIR] [--snapshot FILE] [--metrics DIR]
//!     Run the full report pipeline over a snapshot without re-simulating,
//!     folding its rows chunk by chunk as they are read (one serial fold,
//!     memory bounded by a chunk plus the aggregates); output is
//!     byte-identical to the producing simulate.
//! hfarm cluster  [--scale F] [--days N] [--seed S] [--out DIR] [--snapshot FILE]
//!                [--metrics DIR] [--k N]
//!     Cluster attackers: extract per-client behavioural features
//!     (credentials, command n-grams, timing, ident, geography, taxonomy
//!     mix), normalize with the fixed DESIGN.md §15 scaling, and run the
//!     deterministic seeded k-means with its silhouette sweep. Folds a
//!     live sim day by day, retiring each day's rows, or folds the
//!     `--snapshot` file chunk by chunk: either way RSS stays bounded.
//!     Writes `cluster_assignments.tsv` + `cluster_summary.tsv` into
//!     `--out` and prints the per-cluster summary; output is bit-identical
//!     across sources. `--k` pins k and skips the sweep. `--scale`,
//!     `--days` and `--seed` shape the live sim; each is a usage error with
//!     `--snapshot`.
//! hfarm claims   [--scale F] [--days N] [--seed S]
//!     Print the headline findings only (out-of-core, like `simulate`).
//! hfarm birth    [--scale F] [--days N] [--seed S]
//!     Print the farm-discovery timeline (Section 9; out-of-core likewise).
//! hfarm serve    [--snapshot FILE] [--nodes N] [--metrics DIR] [--ssh-port P]
//!                [--telnet-port P] [--per-ip-cap N] [--wall-timeout S] [--virtual-time]
//!     Run the live TCP honeyfarm: every node's SSH+Telnet listener bound
//!     on its own 127.18/127.19 mirror address, all multiplexed through
//!     one epoll reactor into the collector. Prints one `node <id> ssh
//!     <addr> telnet <addr>` line per node and then `ready`; stops on
//!     Ctrl-C or stdin EOF, prints a final `accounting …` line, and (with
//!     --snapshot) writes the collected run as an hfstore snapshot.
//! hfarm loadgen  [--nodes N] [--scenarios DIR] [--metrics DIR] [--sessions N]
//!                [--concurrent N] [--hold-all] [--spawn-serve]
//!     Replay the scenario corpus over real loopback TCP against a live
//!     farm (in-process by default; --spawn-serve drives a child `hfarm
//!     serve` so client and server each get their own fd budget) and
//!     enforce the ingest-accounting invariant: every driven connection is
//!     either ingested or rejected, none lost.
//! hfarm verify   [--scale F] [--days N] [--seed S] [--claims] [--md]
//!                [--scenarios DIR] [--metrics DIR]
//!     Run the correctness oracles end-to-end: repeat-run differential
//!     (two runs of one config must be identical), snapshot round-trip
//!     equivalence, optional scenario golden checks, and (with --claims)
//!     the full declarative paper-claims table. `--md` prints the claims
//!     table as markdown; it is a usage error without `--claims`.
//! hfarm metrics DIR
//!     Parse and summarize a metrics manifest directory previously
//!     emitted with --metrics (strict schema check of its metrics.json).
//! ```
//!
//! A subcommand rejects (exit 2, nothing written) any flag it does not
//! read and any value out of range: `--days` is in 1..=486 (the paper's
//! window), `--k` and `--nodes` are at least 1, `--scale` is in (0, 1].
//! Every analysis folds on the calling thread as rows arrive, a day or a
//! chunk at a time. `--metrics DIR` enables the hf-obs observability layer
//! for the run and publishes `metrics.json` into DIR at exit.
//! Recording never changes any simulation, snapshot, or report byte
//! (enforced by `tests/obs_invariance.rs`). The synopsis above is checked
//! against [`FLAGS`] by a unit test.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::path::{Path, PathBuf};

use honeyfarm::core::birth::birth_report;
use honeyfarm::core::StreamingFold;
use honeyfarm::farm::SnapshotWriter;
use honeyfarm::prelude::*;

#[derive(Default)]
struct Common {
    scale: f64,
    days: u32,
    seed: u64,
    out: PathBuf,
    snapshot: PathBuf,
    nodes: u16,
    claims: bool,
    md: bool,
    scenarios: Option<PathBuf>,
    metrics: Option<PathBuf>,
    /// The flags named on the command line (defaults are not in it).
    given: Vec<&'static str>,
    ssh_port: u16,
    telnet_port: u16,
    per_ip_cap: u32,
    wall_timeout: u32,
    virtual_time: bool,
    sessions: usize,
    concurrent: usize,
    hold_all: bool,
    spawn_serve: bool,
    k: Option<usize>,
}

/// One row of [`FLAGS`].
struct Flag {
    name: &'static str,
    /// Placeholder naming the value in the usage text; empty for a switch.
    arg: &'static str,
    default: Option<&'static str>,
    /// The subcommands that read the flag; every other one rejects it.
    cmds: &'static [&'static str],
    /// Validate the value and store it (a switch ignores the value).
    set: fn(&mut Common, &str) -> Result<(), String>,
}

/// The subcommands that take flags, in usage order (`metrics DIR` takes none).
const COMMANDS: [&str; 8] = [
    "simulate", "report", "cluster", "claims", "birth", "serve", "loadgen", "verify",
];
/// The subcommands that can run a simulation.
const SIMS: &[&str] = &["simulate", "cluster", "claims", "birth", "verify"];

/// Every flag, stated once: parsing, defaults, per-subcommand rejection,
/// range validation and the usage text all derive from this table.
#[rustfmt::skip]
const FLAGS: [Flag; 20] = [
    Flag { name: "--scale", arg: "F", default: Some("0.005"), cmds: SIMS,
           set: |c, v| scale(v).map(|x| c.scale = x) },
    Flag { name: "--days", arg: "N", default: Some("486"), cmds: SIMS,
           set: |c, v| days(v).map(|n| c.days = n) },
    // 0x0e0e_fa20, `SimConfig::default().seed`.
    Flag { name: "--seed", arg: "S", default: Some("235862560"), cmds: SIMS,
           set: |c, v| at_least(v, 0).map(|n| c.seed = n) },
    Flag { name: "--out", arg: "DIR", default: Some("out/report"),
           cmds: &["simulate", "report", "cluster"],
           set: |c, v| store(&mut c.out, v.into()) },
    Flag { name: "--snapshot", arg: "FILE", default: Some("out/farm.hfstore"),
           cmds: &["simulate", "report", "cluster", "serve"],
           set: |c, v| store(&mut c.snapshot, v.into()) },
    Flag { name: "--nodes", arg: "N", default: Some("3"), cmds: &["serve", "loadgen"],
           set: |c, v| at_least(v, 1).map(|n| c.nodes = n) },
    Flag { name: "--claims", arg: "", default: None, cmds: &["verify"],
           set: |c, _| store(&mut c.claims, true) },
    Flag { name: "--md", arg: "", default: None, cmds: &["verify"],
           set: |c, _| store(&mut c.md, true) },
    Flag { name: "--scenarios", arg: "DIR", default: None, cmds: &["loadgen", "verify"],
           set: |c, v| store(&mut c.scenarios, Some(v.into())) },
    Flag { name: "--metrics", arg: "DIR", default: None,
           cmds: &["simulate", "report", "cluster", "serve", "loadgen", "verify"],
           set: |c, v| store(&mut c.metrics, Some(v.into())) },
    Flag { name: "--ssh-port", arg: "P", default: Some("0"), cmds: &["serve"],
           set: |c, v| at_least(v, 0).map(|n| c.ssh_port = n) },
    Flag { name: "--telnet-port", arg: "P", default: Some("0"), cmds: &["serve"],
           set: |c, v| at_least(v, 0).map(|n| c.telnet_port = n) },
    Flag { name: "--per-ip-cap", arg: "N", default: Some("1024"), cmds: &["serve"],
           set: |c, v| at_least(v, 0).map(|n| c.per_ip_cap = n) },
    Flag { name: "--wall-timeout", arg: "S", default: Some("30"), cmds: &["serve"],
           set: |c, v| at_least(v, 0).map(|n| c.wall_timeout = n) },
    Flag { name: "--virtual-time", arg: "", default: None, cmds: &["serve"],
           set: |c, _| store(&mut c.virtual_time, true) },
    Flag { name: "--sessions", arg: "N", default: Some("1000"), cmds: &["loadgen"],
           set: |c, v| at_least(v, 0).map(|n| c.sessions = n) },
    Flag { name: "--concurrent", arg: "N", default: Some("100"), cmds: &["loadgen"],
           set: |c, v| at_least(v, 0).map(|n| c.concurrent = n) },
    Flag { name: "--hold-all", arg: "", default: None, cmds: &["loadgen"],
           set: |c, _| store(&mut c.hold_all, true) },
    Flag { name: "--spawn-serve", arg: "", default: None, cmds: &["loadgen"],
           set: |c, _| store(&mut c.spawn_serve, true) },
    Flag { name: "--k", arg: "N", default: None, cmds: &["cluster"],
           set: |c, v| at_least(v, 1).map(|n| c.k = Some(n)) },
];

/// Store a value that needs no validation (a switch, a path).
fn store<T>(slot: &mut T, v: T) -> Result<(), String> {
    *slot = v;
    Ok(())
}

/// Parse `v` as an integer of the field's type, no smaller than `min`.
fn at_least<T>(v: &str, min: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    match v.parse::<T>() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!(
            "needs a {} of at least {min}, got {v}",
            std::any::type_name::<T>()
        )),
    }
}

/// Parse `v` as a volume scale: finite, in (0, 1].
fn scale(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x > 0.0 && x <= 1.0 => Ok(x),
        _ => Err(format!("needs a number in (0, 1], got {v}")),
    }
}

/// Parse `v` as a day count within the paper's 486-day study window.
fn days(v: &str) -> Result<u32, String> {
    let max = StudyWindow::paper().num_days();
    match v.parse::<u32>() {
        Ok(n) if (1..=max).contains(&n) => Ok(n),
        _ => Err(format!("needs a day count in 1..={max}, got {v}")),
    }
}

/// Parse `cmd`'s flags over the table defaults. Anything the table does
/// not allow — an unknown flag, one `cmd` does not read, a missing or
/// out-of-range value — is a usage error before anything runs.
fn parse(cmd: &str, args: &[String]) -> Common {
    if !COMMANDS.contains(&cmd) {
        no_subcommand(&format!("unknown subcommand {cmd}"));
    }
    let mut c = Common::default();
    for f in &FLAGS {
        if let Some(d) = f.default {
            (f.set)(&mut c, d).expect("table defaults are valid");
        }
    }
    let mut it = args.iter();
    while let Some(name) = it.next() {
        let Some(f) = FLAGS.iter().find(|f| f.name == name) else {
            usage(cmd, &format!("unknown flag {name}"))
        };
        if !f.cmds.contains(&cmd) {
            usage(cmd, &format!("{cmd} does not read {name}"));
        }
        let value = match f.arg {
            "" => "",
            _ => it
                .next()
                .unwrap_or_else(|| usage(cmd, &format!("{name} needs a value"))),
        };
        if let Err(why) = (f.set)(&mut c, value) {
            usage(cmd, &format!("{name} {why}"));
        }
        c.given.push(f.name);
    }
    if cmd == "verify" && !c.claims && c.given("--md") {
        usage(
            cmd,
            "--md applies to the --claims fixture run only: add --claims",
        );
    }
    c
}

impl Common {
    /// Was `name` on the command line? A defaulted `--snapshot`, for one,
    /// names no source or sink.
    fn given(&self, name: &str) -> bool {
        self.given.contains(&name)
    }

    /// The first of `names` that was on the command line.
    fn first_given(&self, names: &[&'static str]) -> Option<&'static str> {
        names.iter().copied().find(|n| self.given(n))
    }
}

impl Flag {
    /// `[--flag]` or `[--flag ARG]`, as the usage text and the `//!`
    /// synopsis spell it.
    fn token(&self) -> String {
        match self.arg {
            "" => format!("[{}]", self.name),
            arg => format!("[{} {arg}]", self.name),
        }
    }
}

/// The synopsis of one subcommand: every table flag it reads.
fn usage_line(cmd: &str) -> String {
    let mut line = format!("hfarm {cmd}");
    for f in FLAGS.iter().filter(|f| f.cmds.contains(&cmd)) {
        line += " ";
        line += &f.token();
    }
    line
}

/// Reject `cmd`'s command line with one line: the problem, then what `cmd`
/// accepts.
fn usage(cmd: &str, msg: &str) -> ! {
    eprintln!("{msg} (usage: {})", usage_line(cmd));
    std::process::exit(2)
}

/// Reject a command line that names no subcommand: list them all.
fn no_subcommand(msg: &str) -> ! {
    eprintln!("{msg}");
    for cmd in COMMANDS {
        eprintln!("usage: {}", usage_line(cmd));
    }
    eprintln!("usage: hfarm metrics DIR");
    std::process::exit(2)
}

fn sim_config(c: &Common) -> SimConfig {
    SimConfig {
        seed: c.seed,
        scale: Scale::of(c.scale),
        window: StudyWindow::first_days(c.days),
        ..SimConfig::default()
    }
}

/// Where a command's sessions come from. Every analysis folds its rows as
/// they arrive and never holds them all. Every command that analyses a run
/// picks its source here, so flag conflicts are rejected in one place.
enum Source {
    /// Simulate out-of-core, folding and retiring each day's rows
    /// (`simulate` also appends them to its snapshot first).
    SimFold,
    /// Fold the `--snapshot` file chunk by chunk, never holding all rows.
    SnapshotStream,
}

fn source(cmd: &str, c: &Common) -> Source {
    match cmd {
        "cluster" if !c.given("--snapshot") => Source::SimFold,
        "cluster" => match c.first_given(&["--scale", "--days", "--seed"]) {
            Some(name) => usage(
                cmd,
                &format!("{name} shapes the live sim and --snapshot reads a file: drop one"),
            ),
            None => Source::SnapshotStream,
        },
        "report" => Source::SnapshotStream,
        _ => Source::SimFold,
    }
}

/// Build the sim config and print the run banner (`mode` is empty or a
/// `", …"` suffix naming the execution mode).
fn announce_sim(c: &Common, mode: &str) -> SimConfig {
    let config = sim_config(c);
    eprintln!(
        "simulating {} days at scale {} (seed {}{mode}) …",
        config.window.num_days(),
        c.scale,
        c.seed,
    );
    config
}

/// An operation on the outside world failed after the flags were accepted:
/// one line, exit 1.
fn fail(doing: impl std::fmt::Display, e: impl std::fmt::Display) -> ! {
    eprintln!("error {doing}: {e}");
    std::process::exit(1)
}

/// Create the `--snapshot` file's directory.
fn snapshot_dir(c: &Common) {
    if let Some(dir) = c.snapshot.parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(format_args!("creating {}", dir.display()), e));
    }
}

/// Writing the `--snapshot` file failed: one line naming it, exit 1.
fn snapshot_failed(c: &Common, e: SnapshotError) -> ! {
    fail(format_args!("writing {}", c.snapshot.display()), e)
}

/// Write `snap` to the `--snapshot` file, creating its directory.
fn write_snapshot(c: &Common, snap: &Snapshot) {
    snapshot_dir(c);
    snap.write_file(&c.snapshot)
        .unwrap_or_else(|e| snapshot_failed(c, e));
    eprintln!("snapshot written to {}", c.snapshot.display());
}

/// `simulate`'s run: fold each finished day, append it to the `--snapshot`
/// file, then retire it. The file (and its directory) is created before
/// the run starts, so an unwritable path fails before anything simulates.
fn simulate(c: &Common) -> FoldOutput {
    snapshot_dir(c);
    let mut writer = SnapshotWriter::create(&c.snapshot).unwrap_or_else(|e| snapshot_failed(c, e));
    let config = announce_sim(c, "");
    let mut fold: Option<StreamingFold> = None;
    let out = Simulation::run_days(config.clone(), |store, plan, rows| {
        fold.get_or_insert_with(|| StreamingFold::new(plan.len()))
            .ingest_rows(store, plan, rows);
        writer.push(rows).unwrap_or_else(|e| snapshot_failed(c, e));
    });
    let meta = out.snapshot_meta(&config);
    (writer.finish(&meta, &out.dataset.plan, &out.dataset.sessions, &out.tags))
        .unwrap_or_else(|e| snapshot_failed(c, e));
    eprintln!("snapshot written to {}", c.snapshot.display());
    let fold = fold.unwrap_or_else(|| StreamingFold::new(out.dataset.plan.len()));
    FoldOutput {
        aggregates: fold.finish(),
        dataset: out.dataset,
        tags: out.tags,
        n_clients: out.n_clients,
    }
}

/// Write one file into the `--out` directory, creating the directory.
fn write_out(c: &Common, name: &str, contents: &str) {
    let path = c.out.join(name);
    std::fs::create_dir_all(&c.out)
        .and_then(|()| std::fs::write(&path, contents))
        .unwrap_or_else(|e| fail(format_args!("writing {}", path.display()), e));
}

/// Open the `--snapshot` file for a chunk-at-a-time fold.
fn open_snapshot_stream(c: &Common) -> std::io::BufReader<std::fs::File> {
    eprintln!("streaming snapshot {} …", c.snapshot.display());
    let file = std::fs::File::open(&c.snapshot).unwrap_or_else(|e| fail("opening snapshot", e));
    std::io::BufReader::new(file)
}

fn report_peak_rss() {
    if let Some(kb) = honeyfarm::obs::peak_rss_kb() {
        eprintln!("peak RSS: {} MB", kb / 1024);
    }
}

/// The one loader behind `simulate`, `report`, `claims` and `birth`: run or
/// read `cmd`'s [`Source`] and return the run together with its aggregates,
/// which every source folds with the same [`StreamingFold`]. The dataset is
/// rowless: nothing downstream reads rows, which is why every source yields
/// byte-identical reports from identical data.
fn load(cmd: &str, c: &Common) -> FoldOutput {
    let run = match source(cmd, c) {
        Source::SimFold if cmd == "simulate" => simulate(c),
        Source::SimFold => Simulation::run_fold(announce_sim(c, ", out-of-core fold")),
        Source::SnapshotStream => FoldOutput::from_snapshot_stream(open_snapshot_stream(c))
            .unwrap_or_else(|e| fail("streaming snapshot", e)),
    };
    eprintln!(
        "{} sessions folded / {} clients / {} hashes",
        run.aggregates.total_sessions,
        run.n_clients,
        run.tags.len()
    );
    report_peak_rss();
    run
}

/// Write the report dir + claims for a loaded run.
fn write_report(run: &FoldOutput, c: &Common) {
    let report = Report::build_with_tags(&run.dataset, &run.aggregates, &run.tags);
    report
        .write_dir(&c.out)
        .unwrap_or_else(|e| fail(format_args!("writing report to {}", c.out.display()), e));
    let claims = Claims::compute(&run.aggregates);
    write_out(c, "claims.json", &claims.to_json());
    println!("{}", report.summary());
    println!("report written to {}", c.out.display());
}

/// `hfarm cluster` — per-client feature extraction + seeded k-means. The
/// features fold a live sim a day at a time (rows retired) or a snapshot a
/// chunk at a time, so RSS stays bounded either way. Both sources produce
/// bit-identical TSVs from the same data (held by
/// `tests/cluster_invariance.rs` and `tests/cli_sources.rs`).
fn cluster_cmd(c: &Common) {
    use honeyfarm::cluster;

    let cfg = cluster::KMeansConfig { force_k: c.k };
    let feats = match source("cluster", c) {
        Source::SnapshotStream => {
            cluster::features_from_snapshot_stream(open_snapshot_stream(c))
                .unwrap_or_else(|e| fail("streaming snapshot", e))
                .1
        }
        _ => {
            let mut heads = cluster::HeadMap::new();
            let mut fold = cluster::FeatureFold::new();
            let config = announce_sim(c, ", out-of-core fold");
            let out = Simulation::run_days(config, |store, plan, rows| {
                heads.sync(&store.commands);
                fold.ingest_rows(store, plan, &heads, rows);
            });
            fold.finish(out.dataset.plan.len())
        }
    };
    eprintln!("{} clients folded", feats.len());
    report_peak_rss();
    let run = ClusterRun::finish(feats, &cfg);
    let assignments = cluster::assignments_tsv(&run.features, &run.matrix, &run.output);
    write_out(c, "cluster_assignments.tsv", &assignments);
    write_out(c, "cluster_summary.tsv", &cluster::summary_tsv(&run.output));
    print!("{}", cluster::summary_text(&run.features, &run.output));
    println!("cluster tables written to {}", c.out.display());
    emit_metrics(c, "hfarm cluster");
}

/// Flush, package, and write the run's metrics manifest, then parse it
/// back (a malformed manifest is a bug worth failing loudly on).
fn emit_metrics(c: &Common, tool: &str) {
    let Some(dir) = &c.metrics else { return };
    // Final RSS high-water-mark sample so every manifest carries the
    // process-wide peak, not just the fold loop's per-day samples.
    honeyfarm::obs::sample_peak_rss();
    let manifest = honeyfarm::obs::manifest(tool);
    if let Err(e) = manifest.write_dir(dir) {
        fail("writing metrics manifest", e);
    }
    match honeyfarm::obs::RunManifest::load_dir(dir) {
        Ok(m) => eprintln!(
            "metrics manifest written to {} ({} counters, {} histograms, {} spans)",
            dir.display(),
            m.counters.len(),
            m.histograms.len(),
            m.spans.len()
        ),
        Err(e) => {
            eprintln!("emitted metrics manifest failed to parse back: {e}");
            std::process::exit(1);
        }
    }
}

/// `hfarm metrics DIR` — parse a manifest directory and summarize it.
fn metrics_summary(dir: &Path) -> ! {
    match honeyfarm::obs::RunManifest::load_dir(dir) {
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1)
        }
        Ok(m) => {
            println!(
                "manifest ok: schema {} v{}, tool {:?}",
                honeyfarm::obs::SCHEMA_NAME,
                m.schema_version,
                m.tool
            );
            for (name, v) in &m.counters {
                println!("counter    {name} = {v}");
            }
            for (name, v) in &m.gauges {
                println!("gauge      {name} = {v}");
            }
            for (name, h) in &m.histograms {
                println!(
                    "histogram  {name}: n={} sum={} min={} max={}",
                    h.count, h.sum, h.min, h.max
                );
            }
            for (name, s) in &m.spans {
                let threads: Vec<&str> = s.threads.iter().map(String::as_str).collect();
                println!(
                    "span       {name}: n={} wall={}ms self={}ms cpu={}ms max={}ms threads={}",
                    s.count,
                    s.wall_ns / 1_000_000,
                    s.self_ns / 1_000_000,
                    s.cpu_ns / 1_000_000,
                    s.max_wall_ns / 1_000_000,
                    threads.join(",")
                );
            }
            // Derived figures. Hash throughput divides the global
            // `hash.bytes` counter by the longest recorded span's wall —
            // spans nest, so summing them would double-count; the longest
            // one is the run's dominant phase and the honest denominator.
            if let Some(&bytes) = m.counters.get("hash.bytes") {
                if let Some((span, s)) = m.spans.iter().max_by_key(|(_, s)| s.wall_ns) {
                    if s.wall_ns > 0 {
                        let mib_s = bytes as f64 / (s.wall_ns as f64 / 1e9) / (1024.0 * 1024.0);
                        println!(
                            "derived    hash.throughput = {mib_s:.1} MiB/s \
                             ({bytes} hashed bytes over `{span}` wall)"
                        );
                    }
                }
            }
            if let Some(kb) = m.peak_rss_kb() {
                println!(
                    "derived    process.peak_rss = {:.1} MiB ({kb} kB high-water mark)",
                    kb as f64 / 1024.0
                );
            }
            std::process::exit(0)
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        no_subcommand("missing subcommand")
    };
    if cmd == "metrics" {
        let [dir] = rest else {
            no_subcommand("metrics takes exactly one argument: the manifest directory")
        };
        metrics_summary(Path::new(dir));
    }
    let c = parse(cmd, rest);
    if c.metrics.is_some() {
        honeyfarm::obs::enable();
    }
    match cmd.as_str() {
        "simulate" | "report" => {
            let run = load(cmd, &c);
            write_report(&run, &c);
            emit_metrics(&c, &format!("hfarm {cmd}"));
        }
        "cluster" => cluster_cmd(&c),
        "claims" => {
            let run = load(cmd, &c);
            println!("{}", Claims::compute(&run.aggregates));
        }
        "birth" => {
            let run = load(cmd, &c);
            println!("{}", birth_report(&run.aggregates));
        }
        "serve" => serve(&c),
        "loadgen" => loadgen(&c),
        "verify" => verify(&c),
        _ => unreachable!("parse admits only COMMANDS"),
    }
}

/// Run the correctness oracles end-to-end. Quick mode (default) proves the
/// engine's core invariants on a small window; `--claims` evaluates the
/// full declarative paper-claims table on the canonical fixture.
fn verify(c: &Common) -> ! {
    use honeyfarm::testkit::{claims as claims_oracle, diff_sim_outputs, Scenario};

    let mut failures = 0usize;
    let mut check = |name: &str, report: Option<String>| match report {
        None => println!("ok   {name}"),
        Some(detail) => {
            failures += 1;
            println!("FAIL {name}\n{detail}");
        }
    };

    // 1. Repeat-run differential: two runs of the same config must agree
    //    bit-for-bit on a small window.
    let days = c.days.min(30);
    let base = SimConfig {
        seed: c.seed,
        scale: Scale::of(c.scale),
        window: StudyWindow::first_days(days),
        ..SimConfig::default()
    };
    eprintln!(
        "verify: differential run over {days} days at scale {} …",
        c.scale
    );
    let first = Simulation::run(base.clone());
    let report = diff_sim_outputs("first", &first, "second", &Simulation::run(base.clone()));
    check(
        "repeat-run differential",
        (!report.is_identical()).then(|| report.render()),
    );

    // 2. Snapshot round-trip: write → load must reproduce the output, and
    //    writing twice must be byte-identical. The run's own store and tags
    //    move into the snapshot and back: no copy. The second write is
    //    hashed, not kept.
    let mut first = first;
    let snapshot = Snapshot {
        meta: first.snapshot_meta(&base),
        plan: first.dataset.plan.clone(),
        sessions: std::mem::take(&mut first.dataset.sessions),
        tags: std::mem::take(&mut first.tags),
    };
    let mut bytes = Vec::new();
    let written = snapshot.write_to(&mut bytes).map(|()| {
        let mut again = honeyfarm::hash::Sha256::new();
        snapshot
            .write_to(&mut again)
            .expect("second snapshot write");
        again.finalize()
    });
    (first.dataset.sessions, first.tags) = (snapshot.sessions, snapshot.tags);
    match written {
        Err(e) => check("snapshot write", Some(format!("  {e}"))),
        Ok(again) => {
            check(
                "snapshot double-write determinism",
                (honeyfarm::hash::Sha256::digest(&bytes) != again)
                    .then(|| "  two writes of the same run differ".to_string()),
            );
            match Snapshot::read_from(&mut std::io::Cursor::new(&bytes)) {
                Err(e) => check("snapshot load", Some(format!("  {e}"))),
                Ok(snap) => {
                    let reloaded = SimOutput::from_snapshot(snap);
                    let report =
                        diff_sim_outputs("simulated", &first, "snapshot-reloaded", &reloaded);
                    check(
                        "snapshot round-trip equivalence",
                        (!report.is_identical()).then(|| report.render()),
                    );
                }
            }
        }
    }

    // 3. Scenario goldens, if a directory was given.
    if let Some(dir) = &c.scenarios {
        for path in scenario_paths("verify", dir) {
            let name = path
                .file_stem()
                .unwrap_or_default()
                .to_string_lossy()
                .to_string();
            match Scenario::load(&path) {
                Err(e) => check(&format!("scenario {name}"), Some(format!("  {e}"))),
                Ok(sc) => {
                    let golden = path.with_extension("golden");
                    let outcome = honeyfarm::testkit::check_golden(&golden, &sc.event_log());
                    check(
                        &format!("scenario {name}"),
                        outcome.err().map(|e| format!("  {e}")),
                    );
                }
            }
        }
    }

    // 4. The full paper-claims table, on demand (several minutes: runs the
    //    canonical fixture — full 486-day window at scale 0.002).
    if c.claims {
        eprintln!("verify: paper-claims fixture (486 days at scale 0.002) …");
        let out = Simulation::run(SimConfig {
            seed: 0x0e0e_fa20,
            scale: Scale::of(0.002),
            window: StudyWindow::paper(),
            ..SimConfig::default()
        });
        let ctx = claims_oracle::ClaimCtx::new(&out);
        let results = claims_oracle::evaluate(&ctx);
        if c.md {
            println!("{}", claims_oracle::render_markdown(&results));
        } else {
            print!("{}", claims_oracle::render_text(&results));
        }
        let failed = results.iter().filter(|r| !r.pass).count();
        check(
            "paper claims",
            (failed > 0).then(|| format!("  {failed} claim(s) out of tolerance")),
        );
    }

    emit_metrics(c, "hfarm verify");
    if failures == 0 {
        println!("verify: all checks passed");
        std::process::exit(0)
    }
    println!("verify: {failures} check(s) failed");
    std::process::exit(1)
}

/// Set by the SIGINT handler and the stdin watcher; polled by `serve`.
static SERVE_STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_sigint(_sig: i32) {
    SERVE_STOP.store(true, std::sync::atomic::Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}
const SIGINT: i32 = 2;

fn wire_config(c: &Common) -> honeyfarm::wire::FarmConfig {
    honeyfarm::wire::FarmConfig {
        nodes: c.nodes,
        ssh_port: c.ssh_port,
        telnet_port: c.telnet_port,
        timing: if c.virtual_time {
            honeyfarm::wire::Timing::Virtual
        } else {
            honeyfarm::wire::Timing::Wall
        },
        per_ip_cap: c.per_ip_cap,
        wall_timeout_secs: c.wall_timeout,
        ..honeyfarm::wire::FarmConfig::default()
    }
}

/// One parsable line of final farm accounting, consumed by
/// `loadgen --spawn-serve` and by humans alike.
fn accounting_line(stats: &honeyfarm::wire::FarmStats, sessions: usize, clients: u64) -> String {
    format!(
        "accounting accepted={} ingested={} rejected={} wall_timeouts={} oversized={} \
         storms={} read_errors={} auth_ok={} auth_fail={} commands={} open_peak={} \
         sessions={} clients={}",
        stats.accepted(),
        stats.ingested(),
        stats.rejected_ip_cap(),
        stats.wall_timeouts(),
        stats.oversized_lines(),
        stats.telnet_storms(),
        stats.read_errors(),
        stats.auths_ok(),
        stats.auths_fail(),
        stats.commands(),
        stats.open_peak(),
        sessions,
        clients,
    )
}

/// `hfarm serve` — run the live farm until Ctrl-C or stdin EOF.
fn serve(c: &Common) -> ! {
    use std::io::{BufRead, Write};

    let farm = honeyfarm::wire::LiveFarm::start(wire_config(c))
        .unwrap_or_else(|e| fail("starting live farm", e));
    {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for node in farm.nodes() {
            writeln!(
                out,
                "node {} ssh {} telnet {}",
                node.id, node.ssh, node.telnet
            )
            .expect("stdout");
        }
        writeln!(out, "ready").expect("stdout");
        out.flush().expect("stdout");
    }
    eprintln!(
        "live farm up: {} nodes ({} listeners); stop with Ctrl-C or stdin EOF",
        farm.nodes().len(),
        farm.nodes().len() * 2
    );
    // SAFETY: a valid signal number and a `'static` `extern "C" fn(i32)`
    // handler that only stores to an atomic (async-signal-safe).
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
    // A parent process (loadgen --spawn-serve) stops us by closing stdin;
    // interactive use stops with Ctrl-C. Either path sets the same flag.
    std::thread::spawn(|| {
        let stdin = std::io::stdin();
        let mut line = String::new();
        let _ = stdin.lock().read_line(&mut line);
        SERVE_STOP.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    while !SERVE_STOP.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("draining …");
    let out = farm.shutdown();
    println!(
        "{}",
        accounting_line(&out.stats, out.dataset.len(), out.n_clients)
    );
    if c.given("--snapshot") {
        write_snapshot(c, &out.to_snapshot());
    }
    emit_metrics(c, "hfarm serve");
    if !out.stats.accounting_balanced() {
        eprintln!("accounting violation: accepted != ingested + rejected");
        std::process::exit(1);
    }
    std::process::exit(0)
}

/// The `.hfs` files of a scenario directory, sorted by path.
fn scenario_paths(cmd: &str, dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| usage(cmd, &format!("--scenarios {}: {e}", dir.display())))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "hfs"))
        .collect();
    paths.sort();
    paths
}

/// Load the `.hfs` corpus for load generation.
fn load_corpus(c: &Common) -> Vec<honeyfarm::testkit::Scenario> {
    let dir = c
        .scenarios
        .clone()
        .unwrap_or_else(|| PathBuf::from("tests/scenarios"));
    let scenarios: Vec<_> = scenario_paths("loadgen", &dir)
        .iter()
        .map(|p| {
            honeyfarm::testkit::Scenario::load(p)
                .unwrap_or_else(|e| usage("loadgen", &format!("{}: {e}", p.display())))
        })
        .collect();
    if scenarios.is_empty() {
        usage(
            "loadgen",
            &format!("no .hfs scenarios in {}", dir.display()),
        );
    }
    scenarios
}

/// `hfarm loadgen` — replay scenarios over loopback TCP and enforce the
/// ingest-accounting invariant.
fn loadgen(c: &Common) -> ! {
    let scenarios = load_corpus(c);
    let needed = scenarios.iter().map(|s| s.honeypot + 1).max().unwrap_or(1);
    let nodes = c.nodes.max(needed);
    let cfg = honeyfarm::wire::LoadgenConfig {
        sessions: c.sessions,
        concurrency: c.concurrent,
        hold_all: c.hold_all,
    };
    eprintln!(
        "loadgen: {} sessions over {} scenarios against {} nodes ({})",
        cfg.sessions,
        scenarios.len(),
        nodes,
        if c.hold_all {
            "hold-all".to_string()
        } else {
            format!("{} concurrent", cfg.concurrency)
        }
    );
    let (report, accepted, ingested, rejected) = if c.spawn_serve {
        loadgen_against_child(nodes, &scenarios, &cfg)
    } else {
        let farm = honeyfarm::wire::LiveFarm::start(honeyfarm::wire::FarmConfig {
            nodes,
            timing: honeyfarm::wire::Timing::Virtual,
            per_ip_cap: 1 << 30,
            wall_timeout_secs: 600,
            ..honeyfarm::wire::FarmConfig::default()
        })
        .unwrap_or_else(|e| fail("starting live farm", e));
        let report = honeyfarm::wire::loadgen::run(farm.nodes(), &scenarios, &cfg);
        let out = farm.shutdown();
        let s = &out.stats;
        (report, s.accepted(), s.ingested(), s.rejected_ip_cap())
    };
    println!(
        "driven {} (connect errors {}), completed {}, failed {}, peak open {}, \
         {} bytes read, {:.2}s",
        report.driven,
        report.connect_errors,
        report.completed,
        report.failed,
        report.peak_open,
        report.bytes_in,
        report.elapsed.as_secs_f64(),
    );
    println!("farm: accepted {accepted}, ingested {ingested}, rejected {rejected}");
    emit_metrics(c, "hfarm loadgen");
    // The invariant the whole pipeline hangs off: every connection the
    // client established was either turned into a session record or
    // explicitly rejected — none lost, even under shutdown or faults.
    if accepted != report.driven || ingested + rejected != report.driven {
        eprintln!(
            "ACCOUNTING VIOLATION: driven={} accepted={} ingested+rejected={}",
            report.driven,
            accepted,
            ingested + rejected
        );
        std::process::exit(1);
    }
    println!("accounting ok: ingested + rejected == driven == accepted");
    std::process::exit(0)
}

/// Drive a child `hfarm serve` process — client and server each get their
/// own fd budget, which is what lets a single machine demonstrate 10k+
/// concurrent sessions.
fn loadgen_against_child(
    nodes: u16,
    scenarios: &[honeyfarm::testkit::Scenario],
    cfg: &honeyfarm::wire::LoadgenConfig,
) -> (honeyfarm::wire::LoadgenReport, u64, u64, u64) {
    use std::io::BufRead;

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .args([
            "serve",
            "--virtual-time",
            "--nodes",
            &nodes.to_string(),
            "--per-ip-cap",
            &(1u32 << 30).to_string(),
            "--wall-timeout",
            "600",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| fail("spawning serve child", e));
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let mut node_addrs = Vec::new();
    for line in lines.by_ref() {
        let line = line.expect("child stdout");
        if line == "ready" {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if let ["node", id, "ssh", ssh, "telnet", telnet] = parts[..] {
            node_addrs.push(honeyfarm::wire::NodeAddrs {
                id: id.parse().expect("node id"),
                ssh: ssh.parse().expect("ssh addr"),
                telnet: telnet.parse().expect("telnet addr"),
            });
        }
    }
    assert!(!node_addrs.is_empty(), "serve child announced no nodes");
    let report = honeyfarm::wire::loadgen::run(&node_addrs, scenarios, cfg);
    // Closing the child's stdin is the stop signal; it drains and prints
    // its final accounting line before exiting.
    drop(child.stdin.take());
    let (mut accepted, mut ingested, mut rejected) = (0u64, 0u64, 0u64);
    for line in lines {
        let line = line.expect("child stdout");
        if let Some(rest) = line.strip_prefix("accounting ") {
            for kv in rest.split_whitespace() {
                let Some((k, v)) = kv.split_once('=') else {
                    continue;
                };
                let v: u64 = v.parse().unwrap_or(0);
                match k {
                    "accepted" => accepted = v,
                    "ingested" => ingested = v,
                    "rejected" => rejected = v,
                    _ => {}
                }
            }
        }
    }
    let status = child.wait().expect("child wait");
    assert!(status.success(), "serve child failed: {status}");
    (report, accepted, ingested, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `//!` synopsis block of `cmd`: its `hfarm <cmd>` line up to the
    /// next subcommand's.
    fn synopsis(cmd: &str) -> String {
        include_str!("hfarm.rs")
            .lines()
            .take_while(|l| l.starts_with("//!"))
            .skip_while(|l| !l.starts_with(&format!("//! hfarm {cmd} ")))
            .enumerate()
            .take_while(|(i, l)| *i == 0 || !l.starts_with("//! hfarm "))
            .map(|(_, l)| l)
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn usage_and_synopsis_list_exactly_the_flags_each_subcommand_reads() {
        for f in &FLAGS {
            assert!(f.cmds.iter().all(|c| COMMANDS.contains(c)), "{}", f.name);
            for cmd in COMMANDS {
                let reads = f.cmds.contains(&cmd);
                let t = f.token();
                assert_eq!(usage_line(cmd).contains(&t), reads, "usage: {cmd} {t}");
                assert_eq!(synopsis(cmd).contains(&t), reads, "//! synopsis: {cmd} {t}");
            }
        }
    }

    #[test]
    fn table_defaults_parse_and_match_the_library() {
        let c = parse("simulate", &[]);
        assert_eq!(c.seed, SimConfig::default().seed);
        assert_eq!((c.days, c.nodes), (486, 3));
        assert!(c.given.is_empty() && c.k.is_none());
        assert_eq!(sim_config(&c).window, StudyWindow::paper());
    }
}

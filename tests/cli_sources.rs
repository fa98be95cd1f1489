//! The `hfarm` binary reaches the same data from two sources — the
//! simulator's day loop and a snapshot read chunk by chunk — and every
//! analysis folds the rows as they arrive: the report through the
//! aggregates fold, the clusters through the feature fold. Whatever the
//! source, the files written must be byte-identical to
//! what the library's materialized reference renders over the whole kept
//! dataset (and `claims`/`birth` must print it), and a command line the
//! flag table does not allow — a combination that names no source, a value
//! out of range, a flag the subcommand does not read — must be rejected
//! before anything is written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const RUN: [&str; 6] = ["--scale", "0.001", "--days", "5", "--seed", "42"];

fn workdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hf_cli_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

fn hfarm(args: &[&str], paths: &[(&str, &Path)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hfarm"));
    cmd.args(args);
    for (flag, path) in paths {
        cmd.arg(flag).arg(path);
    }
    cmd.output().expect("spawn hfarm")
}

fn ok(args: &[&str], paths: &[(&str, &Path)]) {
    let out = hfarm(args, paths);
    assert!(
        out.status.success(),
        "hfarm {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn assert_same_files(a: &Path, b: &Path) {
    let names = |dir: &Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        names.sort();
        names
    };
    let files = names(a);
    assert!(!files.is_empty(), "{} is empty", a.display());
    assert_eq!(files, names(b), "{} vs {}", a.display(), b.display());
    for name in files {
        assert!(
            std::fs::read(a.join(&name)).expect("read")
                == std::fs::read(b.join(&name)).expect("read"),
            "{name:?} differs between {} and {}",
            a.display(),
            b.display()
        );
    }
}

/// The library's materialized reference for `RUN`: `Simulation::run`, then
/// `Aggregates::compute` for the report and `claims.json`, and
/// `ClusterRun::over` for the two cluster tables. Returns the bytes of the
/// run's snapshot, `to_snapshot` written with `write_to`.
fn write_reference(report_dir: &Path, cluster_dir: &Path) -> Vec<u8> {
    use honeyfarm::cluster;
    use honeyfarm::prelude::*;

    let config = SimConfig {
        seed: 42,
        scale: Scale::of(0.001),
        window: StudyWindow::first_days(5),
        ..SimConfig::default()
    };
    let out = Simulation::run(config.clone());
    let mut snapshot = Vec::new();
    (out.to_snapshot(&config).write_to(&mut snapshot)).expect("reference snapshot");
    let agg = Aggregates::compute(&out.dataset);
    Report::build_with_tags(&out.dataset, &agg, &out.tags)
        .write_dir(report_dir)
        .expect("reference report");
    std::fs::write(
        report_dir.join("claims.json"),
        Claims::compute(&agg).to_json(),
    )
    .expect("reference claims");
    let run = ClusterRun::over(&out.dataset, 1, &KMeansConfig::default());
    std::fs::create_dir_all(cluster_dir).expect("reference cluster dir");
    let tables = [
        (
            "cluster_assignments.tsv",
            cluster::assignments_tsv(&run.features, &run.matrix, &run.output),
        ),
        ("cluster_summary.tsv", cluster::summary_tsv(&run.output)),
    ];
    for (name, tsv) in tables {
        std::fs::write(cluster_dir.join(name), tsv).expect("reference cluster table");
    }
    snapshot
}

#[test]
fn every_source_writes_the_same_report_and_clusters() {
    let dir = workdir("sources");
    let at = |name: &str| dir.join(name);
    let reference = write_reference(&at("ref_report"), &at("ref_cluster"));

    // `simulate` streams its snapshot day by day; the file is the library's
    // whole-run write, byte for byte.
    let snap = at("run.hfstore");
    let sim_args = [&["simulate"][..], &RUN].concat();
    ok(&sim_args, &[("--out", &at("sim")), ("--snapshot", &snap)]);
    assert!(
        std::fs::read(&snap).expect("read snapshot") == reference,
        "simulate's snapshot differs from to_snapshot().write_to()"
    );
    ok(&["report"], &[("--out", &at("rep")), ("--snapshot", &snap)]);
    for report in ["sim", "rep"] {
        assert_same_files(&at("ref_report"), &at(report));
    }

    ok(
        &[&["cluster"][..], &RUN].concat(),
        &[("--out", &at("cl_live"))],
    );
    ok(&["cluster"], &[("--out", &at("cl")), ("--snapshot", &snap)]);
    for clusters in ["cl_live", "cl"] {
        assert_same_files(&at("ref_cluster"), &at(clusters));
    }

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// `claims` and `birth` only ever fold; their stdout must stay what the
/// library's materialized reference renders.
#[test]
fn claims_and_birth_print_the_materialized_reference() {
    use honeyfarm::core::birth::birth_report;
    use honeyfarm::prelude::*;

    let reference = Aggregates::compute(
        &Simulation::run(SimConfig {
            seed: 42,
            scale: Scale::of(0.001),
            window: StudyWindow::first_days(5),
            ..SimConfig::default()
        })
        .dataset,
    );
    let expected = [
        ("claims", format!("{}\n", Claims::compute(&reference))),
        ("birth", format!("{}\n", birth_report(&reference))),
    ];
    for (cmd, expected) in expected {
        let args = [&[cmd][..], &RUN].concat();
        let out = hfarm(&args, &[]);
        assert!(out.status.success(), "hfarm {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stdout) == expected,
            "hfarm {args:?} differs from the materialized reference"
        );
    }
}

/// A snapshot whose checksums hold but whose row names honeypot 500 of 221
/// is refused by `report` and `cluster` alike: exit 1 with one `error …`
/// line naming the fault, never a panic.
#[test]
fn a_row_past_the_plan_exits_1_from_report_and_cluster() {
    use honeyfarm::prelude::*;

    let dir = workdir("row_past_plan");
    let config = SimConfig::test(2);
    let mut snap = Simulation::run(config.clone()).to_snapshot(&config);
    let mut rows = snap.sessions.rows().to_vec();
    rows[0].honeypot = 500;
    snap.sessions.retire_rows();
    snap.sessions.set_rows(rows);
    let file = dir.join("run.hfstore");
    snap.write_file(&file).expect("write snapshot");

    for cmd in ["report", "cluster"] {
        let out = hfarm(&[cmd], &[("--snapshot", &file), ("--out", &dir.join(cmd))]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "hfarm {cmd}: {stderr}");
        assert!(!stderr.contains("panicked at"), "hfarm {cmd}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error ")).collect();
        assert_eq!(errors.len(), 1, "hfarm {cmd}: {stderr}");
        assert!(
            errors[0].contains("honeypot 500; the plan has 221"),
            "hfarm {cmd}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A path that cannot be written is refused with exit 1 and one `error …`
/// line naming the path, never a panic. `report` and `cluster` find an
/// unwritable `--out` only after the analysis has run; `simulate` creates
/// its `--snapshot` before it simulates, so it fails first.
#[test]
fn unwritable_output_paths_exit_1_without_a_panic() {
    let dir = workdir("unwritable");
    let snap = dir.join("run.hfstore");
    let file = dir.join("file");
    std::fs::write(&file, "not a directory").expect("write file");
    let under_file = file.join("out");
    let sim_args = [&["simulate"][..], &RUN].concat();
    ok(
        &sim_args,
        &[("--out", &dir.join("sim")), ("--snapshot", &snap)],
    );

    let fails = |args: &[&str], paths: &[(&str, &Path)]| {
        let out = hfarm(args, paths);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "hfarm {args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "hfarm {args:?}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error ")).collect();
        assert_eq!(errors.len(), 1, "hfarm {args:?}: {stderr}");
        assert!(
            errors[0].contains(&*under_file.to_string_lossy()),
            "hfarm {args:?}: {stderr}"
        );
    };
    fails(
        &["report"],
        &[("--snapshot", &snap), ("--out", &under_file)],
    );
    fails(
        &["cluster"],
        &[("--snapshot", &snap), ("--out", &under_file)],
    );
    fails(
        &sim_args,
        &[
            ("--snapshot", &under_file.join("s.hfstore")),
            ("--out", &dir.join("sim")),
        ],
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn flags_that_name_no_source_exit_2_and_write_nothing() {
    let dir = workdir("usage");
    let out_dir = dir.join("out");
    let snap = dir.join("never.hfstore");
    let rejected = |args: &[&str], paths: &[(&str, &Path)], needle: &str| {
        let out = hfarm(args, paths);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "hfarm {args:?}: {stderr}");
        assert!(stderr.contains(needle), "hfarm {args:?}: {stderr}");
        assert!(stderr.contains("usage: hfarm"), "hfarm {args:?}: {stderr}");
        assert!(!out_dir.exists(), "hfarm {args:?} touched --out");
        assert!(!snap.exists(), "hfarm {args:?} wrote a snapshot");
    };

    rejected(
        &[&["simulate", "--no-such-flag"][..], &RUN].concat(),
        &[("--out", &out_dir)],
        "unknown flag --no-such-flag",
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Every range the flag table validates, one flag per subcommand that the
/// subcommand does not read, and every flag that is read but means nothing
/// next to another (`cluster --snapshot` with a sim-shaping flag, `verify`
/// fixture flags without `--claims`): exit 2, one line on stderr naming
/// the flag, and nothing created. (Out-of-range `--days` / `--scale` used
/// to die in a library assert or be clamped; the rest used to be silently
/// ignored.)
#[test]
fn out_of_range_values_and_unread_flags_exit_2_and_write_nothing() {
    let dir = workdir("table");
    let out_dir = dir.join("out");
    let snap = dir.join("never.hfstore");
    let cases: [(&[&str], &str); 30] = [
        (&["simulate", "--days", "0"], "--days"),
        (&["simulate", "--days", "487"], "--days"),
        (&["simulate", "--scale", "0"], "--scale"),
        (&["simulate", "--scale", "-1"], "--scale"),
        (&["simulate", "--scale", "nan"], "--scale"),
        (&["simulate", "--scale", "1.5"], "--scale"),
        (&["simulate", "--threads", "0"], "unknown flag --threads"),
        (&["cluster", "--k", "0"], "--k"),
        (&["serve", "--nodes", "0"], "--nodes"),
        (
            &["report", "--scale", "0.001"],
            "report does not read --scale",
        ),
        (&["simulate", "--fold"], "unknown flag --fold"),
        (&["report", "--fold"], "unknown flag --fold"),
        (&["report", "--threads", "2"], "unknown flag --threads"),
        (&["report", "--streaming"], "unknown flag --streaming"),
        (&["cluster", "--streaming"], "unknown flag --streaming"),
        (&["simulate", "--fast"], "unknown flag --fast"),
        (&["cluster", "--fast"], "unknown flag --fast"),
        (&["claims", "--fast"], "unknown flag --fast"),
        (&["birth", "--fast"], "unknown flag --fast"),
        (&["verify", "--fast"], "unknown flag --fast"),
        (&["simulate", "--k", "3"], "simulate does not read --k"),
        (&["cluster", "--fold"], "unknown flag --fold"),
        // Below, `cluster` is also handed `--snapshot`: a file is no sim.
        (
            &["cluster", "--scale", "0.001"],
            "--scale shapes the live sim",
        ),
        (&["cluster", "--days", "5"], "--days shapes the live sim"),
        (&["cluster", "--seed", "1"], "--seed shapes the live sim"),
        (&["cluster", "--threads", "2"], "unknown flag --threads"),
        (&["verify", "--md"], "--md applies to the --claims"),
        (&["verify", "--threads", "2"], "unknown flag --threads"),
        (&["serve", "--days", "5"], "serve does not read --days"),
        (
            &["loadgen", "--snapshot", "x"],
            "loadgen does not read --snapshot",
        ),
    ];
    for (args, needle) in cases {
        // Name the output paths wherever the subcommand reads them, so a
        // run that got past parsing would leave something behind.
        let paths: &[(&str, &Path)] = match args[0] {
            "simulate" | "cluster" => &[("--out", &out_dir), ("--snapshot", &snap)],
            "report" => &[("--out", &out_dir)],
            "serve" => &[("--snapshot", &snap)],
            _ => &[],
        };
        let out = hfarm(args, paths);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "hfarm {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "hfarm {args:?}: {stderr}");
        assert!(stderr.starts_with(needle), "hfarm {args:?}: {stderr}");
        assert!(stderr.contains("usage: hfarm"), "hfarm {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "hfarm {args:?} printed to stdout");
        assert!(!out_dir.exists(), "hfarm {args:?} touched --out");
        assert!(!snap.exists(), "hfarm {args:?} wrote a snapshot");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

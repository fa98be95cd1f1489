//! The `hfarm` binary reaches the same data through four sources — live
//! sim, out-of-core folded sim, materialized snapshot, streamed snapshot —
//! and all of them go through one loader. Whatever the source, the files
//! written must be byte-identical, and a command line the flag table does
//! not allow — a combination that names no source, a value out of range, a
//! flag the subcommand does not read — must be rejected before anything is
//! written.

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

#[test]
fn every_source_writes_the_same_report_and_clusters() {
    let dir = workdir("sources");
    let snap = dir.join("run.hfstore");
    let at = |name: &str| dir.join(name);

    let sim_args = [&["simulate"][..], &RUN].concat();
    ok(&sim_args, &[("--out", &at("sim")), ("--snapshot", &snap)]);
    ok(
        &[&sim_args[..], &["--fold"]].concat(),
        &[("--out", &at("fold"))],
    );
    ok(&["report"], &[("--out", &at("rep")), ("--snapshot", &snap)]);
    ok(
        &["report", "--streaming"],
        &[("--out", &at("stream")), ("--snapshot", &snap)],
    );
    for other in ["fold", "rep", "stream"] {
        assert_same_files(&at("sim"), &at(other));
    }

    ok(&["cluster"], &[("--out", &at("cl")), ("--snapshot", &snap)]);
    ok(
        &["cluster", "--streaming"],
        &[("--out", &at("cl_stream")), ("--snapshot", &snap)],
    );
    assert_same_files(&at("cl"), &at("cl_stream"));

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

    // `--streaming` folds a snapshot; without one there is nothing to fold
    // (and it must not fall through to a full simulation).
    rejected(
        &[&["cluster", "--streaming"][..], &RUN].concat(),
        &[("--out", &out_dir)],
        "--streaming folds an existing snapshot",
    );
    // `--fold` never writes a snapshot, so it must not accept a path for one.
    rejected(
        &[&["simulate", "--fold"][..], &RUN].concat(),
        &[("--out", &out_dir), ("--snapshot", &snap)],
        "writes no snapshot",
    );
    rejected(
        &[&["simulate", "--no-such-flag"][..], &RUN].concat(),
        &[("--out", &out_dir)],
        "unknown flag --no-such-flag",
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Every range the flag table validates, and one flag per subcommand that
/// the subcommand does not read: exit 2, one line on stderr naming the
/// flag, and nothing created. (Out-of-range `--days` / `--scale` used to
/// die in a library assert; unread flags used to be silently ignored.)
#[test]
fn out_of_range_values_and_unread_flags_exit_2_and_write_nothing() {
    let dir = workdir("table");
    let out_dir = dir.join("out");
    let snap = dir.join("never.hfstore");
    let cases: [(&[&str], &str); 14] = [
        (&["simulate", "--days", "0"], "--days"),
        (&["simulate", "--scale", "0"], "--scale"),
        (&["simulate", "--scale", "-1"], "--scale"),
        (&["simulate", "--scale", "nan"], "--scale"),
        (&["simulate", "--scale", "1.5"], "--scale"),
        (&["simulate", "--threads", "0"], "--threads"),
        (&["cluster", "--k", "0"], "--k"),
        (&["serve", "--nodes", "0"], "--nodes"),
        (
            &["report", "--scale", "0.001"],
            "report does not read --scale",
        ),
        (&["report", "--fold"], "report does not read --fold"),
        (&["simulate", "--k", "3"], "simulate does not read --k"),
        (&["cluster", "--fold"], "cluster does not read --fold"),
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

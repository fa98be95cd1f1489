//! Every test must be able to fail. `tests/mutants.tsv` plants one small
//! bug per row — a needle that occurs exactly once in one source file, and
//! its replacement — and names the test expected to catch it. No production
//! code knows about the table: a mutant is a text edit, not a hook.
//!
//! * `mutant_table_is_well_formed` (cheap, always on) checks the table
//!   against the tree: every file exists, every needle occurs exactly once,
//!   ids are unique, and every expected killer names a `fn` in the workspace.
//! * `kill_matrix` (ignored; `cargo test --test mutants -- --ignored
//!   --nocapture`) copies the tracked tree into `target/mutants/tree` and
//!   runs the unmutated workspace suite there, aborting if a test fails.
//!   Then, row by row, it plants the mutant, builds and runs
//!   `cargo test --workspace --no-fail-fast --offline` against the shared
//!   `target/mutants/target`, records which tests fail, and restores the
//!   file. A test counts as failing only if it fails again when re-run on
//!   its own; one that passes on the re-run is listed as flaky and kills
//!   nothing. The runner fails when a mutant survives, when a row's named
//!   killer is not among its killers, when a row does not build or times
//!   out (an invalid row never counts as killed), or when the control row —
//!   whose replacement changes no behaviour — is killed. The matrix lands
//!   in `target/mutants/matrix.tsv` and `matrix.md`.
//!
//! The suite runs with `--workspace` because the root package alone misses
//! the crate unit tests, which are the only killers of several rows.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// The killer column of the control row.
const CONTROL: &str = "-";
/// Cold builds of the whole workspace get this long.
const BUILD_LIMIT: Duration = Duration::from_secs(1800);
/// The unmutated suite gets this long; each row gets five times the
/// baseline suite's wall time plus this slack.
const TEST_SLACK: Duration = Duration::from_secs(120);
/// This file's own table check fails in every mutated tree (its needle is
/// gone), so the runner skips it.
const TABLE_CHECK: &str = "mutant_table_is_well_formed";

struct Mutant {
    id: String,
    file: String,
    needle: String,
    replacement: String,
    killer: String,
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `\n`, `\t` and `\\` are the table's only escapes.
fn unescape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('\\') => out.push('\\'),
            other => panic!("bad escape \\{other:?} in {field:?}"),
        }
    }
    out
}

fn table() -> Vec<Mutant> {
    let text =
        fs::read_to_string(root().join("tests/mutants.tsv")).expect("read tests/mutants.tsv");
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    assert_eq!(
        lines.next(),
        Some("id\tfile\tneedle\treplacement\tkiller"),
        "header row"
    );
    lines
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 5, "five tab-separated columns: {line:?}");
            Mutant {
                id: f[0].to_string(),
                file: f[1].to_string(),
                needle: unescape(f[2]),
                replacement: unescape(f[3]),
                killer: f[4].to_string(),
            }
        })
        .collect()
}

/// Every `fn` name declared in the workspace's Rust sources.
fn workspace_fns() -> BTreeSet<String> {
    fn walk(dir: &Path, names: &mut BTreeSet<String>) {
        for entry in fs::read_dir(dir).expect("read dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, names);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = fs::read_to_string(&path).expect("read source");
                for (i, _) in text.match_indices("fn ") {
                    let name: String = text[i + 3..]
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    names.insert(name);
                }
            }
        }
    }
    let mut names = BTreeSet::new();
    for dir in ["src", "tests", "crates"] {
        walk(&root().join(dir), &mut names);
    }
    names
}

#[test]
fn mutant_table_is_well_formed() {
    let rows = table();
    let fns = workspace_fns();
    let mut ids = BTreeSet::new();
    for m in &rows {
        assert!(ids.insert(m.id.as_str()), "{}: duplicate id", m.id);
        let src = fs::read_to_string(root().join(&m.file))
            .unwrap_or_else(|e| panic!("{}: {} does not exist: {e}", m.id, m.file));
        assert_eq!(
            src.matches(m.needle.as_str()).count(),
            1,
            "{}: the needle must occur exactly once in {}",
            m.id,
            m.file
        );
        assert_ne!(
            m.needle, m.replacement,
            "{}: a mutant changes the text",
            m.id
        );
        if m.killer != CONTROL {
            let (target, name) = m
                .killer
                .split_once("::")
                .unwrap_or_else(|| panic!("{}: killer is <target>::<test path>", m.id));
            assert!(!target.is_empty(), "{}: killer names its test target", m.id);
            let leaf = name.rsplit("::").next().expect("non-empty");
            assert!(
                fns.contains(leaf),
                "{}: expected killer {} names no fn in the workspace",
                m.id,
                m.killer
            );
        }
    }
    let controls = rows.iter().filter(|m| m.killer == CONTROL).count();
    assert_eq!(controls, 1, "exactly one control row");
    assert!(rows.len() - controls >= 30, "at least 30 mutants");
}

/// Copy every tracked (or new, unignored) file into a fresh `tree`.
fn copy_tracked_tree(tree: &Path) {
    let out = Command::new("git")
        .args([
            "ls-files",
            "-z",
            "--cached",
            "--others",
            "--exclude-standard",
        ])
        .current_dir(root())
        .output()
        .expect("run git ls-files");
    assert!(out.status.success(), "git ls-files failed");
    match fs::remove_dir_all(tree) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("clear {}: {e}", tree.display()),
    }
    for rel in out.stdout.split(|&b| b == 0).filter(|p| !p.is_empty()) {
        let rel = Path::new(std::str::from_utf8(rel).expect("utf-8 path"));
        let src = root().join(rel);
        if !src.is_file() {
            continue; // tracked but deleted in the working tree
        }
        let dst = tree.join(rel);
        fs::create_dir_all(dst.parent().expect("parent")).expect("mkdir");
        fs::copy(&src, &dst).expect("copy");
    }
}

enum Outcome {
    /// The suite ran: the tests that failed twice, those that failed once
    /// and passed when re-run, and how many tests ran.
    Ran {
        failed: BTreeSet<String>,
        flaky: BTreeSet<String>,
        tests: usize,
    },
    NoBuild(String),
    TimedOut(&'static str),
}

/// Run `cargo <args>` in `tree` under `timeout`, stdout and stderr merged
/// in order. `None` means the limit was hit.
fn cargo(tree: &Path, target_dir: &Path, limit: Duration, args: &str) -> Option<(bool, String)> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "exec timeout -k 10 {} \"{cargo}\" {args} 2>&1",
            limit.as_secs()
        ))
        .current_dir(tree)
        .env("CARGO_TARGET_DIR", target_dir)
        .env("CARGO_TERM_COLOR", "never")
        // A golden refresh would turn every golden killer into a survivor.
        .env_remove("UPDATE_GOLDENS")
        .output()
        .expect("run cargo");
    if matches!(out.status.code(), Some(124) | Some(137)) {
        return None;
    }
    Some((
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

fn run_suite(tree: &Path, target_dir: &Path, test_limit: Duration) -> Outcome {
    let Some((built, log)) = cargo(
        tree,
        target_dir,
        BUILD_LIMIT,
        "test --workspace --offline --no-run",
    ) else {
        return Outcome::TimedOut("build");
    };
    if !built {
        let tail: Vec<&str> = log.lines().rev().take(20).collect();
        return Outcome::NoBuild(tail.into_iter().rev().collect::<Vec<_>>().join("\n"));
    }
    let Some((_, log)) = cargo(
        tree,
        target_dir,
        test_limit,
        &format!("test --workspace --no-fail-fast --offline -- --color never --skip {TABLE_CHECK}"),
    ) else {
        return Outcome::TimedOut("test");
    };
    let (mut failed, tests) = failed_tests(&log);
    // A failure counts only if the test fails again when re-run on its own,
    // so a test that flakes under load neither kills a mutant nor the
    // control. A crashed binary is not re-run.
    let names: Vec<String> = failed
        .iter()
        .filter_map(|t| t.split_once("::").map(|(_, name)| name))
        .filter(|name| *name != "(crashed)")
        .map(|name| format!("'{}'", name.replace('\'', r"'\''")))
        .collect();
    let mut flaky = BTreeSet::new();
    if !names.is_empty() {
        let rerun = cargo(
            tree,
            target_dir,
            test_limit,
            &format!(
                "test --workspace --no-fail-fast --offline -- --color never --exact {}",
                names.join(" ")
            ),
        );
        let Some((_, log)) = rerun else {
            return Outcome::TimedOut("re-run");
        };
        let (again, _) = failed_tests(&log);
        (failed, flaky) = failed
            .into_iter()
            .partition(|t| again.contains(t) || t.ends_with("::(crashed)"));
    }
    Outcome::Ran {
        failed,
        flaky,
        tests,
    }
}

/// The failing tests in a merged cargo log, as `<target>::<test path>`:
/// the target is the test binary's name (`hf_core`, `determinism`) or
/// `doc-<crate>`. A binary that died without a result line counts as
/// `<target>::(crashed)`.
fn failed_tests(log: &str) -> (BTreeSet<String>, usize) {
    let mut failed = BTreeSet::new();
    let mut tests = 0;
    let mut target = String::new();
    let mut open = false;
    fn close(target: &str, open: bool, failed: &mut BTreeSet<String>) {
        if open {
            failed.insert(format!("{target}::(crashed)"));
        }
    }
    for line in log.lines().map(str::trim) {
        if let Some(rest) = line.strip_prefix("Running ") {
            close(&target, open, &mut failed);
            // `unittests src/lib.rs (target/debug/deps/hf_core-4245c1dae21b86d2)`
            let binary = rest
                .rsplit('/')
                .next()
                .unwrap_or(rest)
                .trim_end_matches(')');
            target = binary
                .rsplit_once('-')
                .map_or(binary, |(name, _)| name)
                .to_string();
            open = true;
        } else if let Some(krate) = line.strip_prefix("Doc-tests ") {
            close(&target, open, &mut failed);
            target = format!("doc-{krate}");
            open = true;
        } else if let Some(name) = line
            .strip_prefix("test ")
            .and_then(|rest| rest.strip_suffix(" ... FAILED"))
        {
            let name = name.trim_end_matches(" - should panic");
            failed.insert(format!("{target}::{name}"));
        } else if let Some(result) = line.strip_prefix("test result: ") {
            open = false;
            for part in result.split("; ") {
                let mut words = part.split_whitespace().rev();
                if let (Some("passed" | "failed"), Some(n)) = (words.next(), words.next()) {
                    tests += n.parse::<usize>().unwrap_or(0);
                }
            }
        }
    }
    close(&target, open, &mut failed);
    (failed, tests)
}

#[test]
#[ignore = "plants every mutant and runs the workspace suite once per row, ~40 s each"]
fn kill_matrix() {
    let rows = table();
    let work = root().join("target/mutants");
    let tree = work.join("tree");
    let target_dir = work.join("target");
    let started = Instant::now();
    copy_tracked_tree(&tree);

    let baseline = Instant::now();
    let (n_tests, base_flaky) = match run_suite(&tree, &target_dir, BUILD_LIMIT) {
        Outcome::Ran {
            failed,
            flaky,
            tests,
        } if failed.is_empty() => (tests, flaky),
        Outcome::Ran { failed, .. } => panic!("the unmutated suite fails: {failed:?}"),
        Outcome::NoBuild(log) => panic!("the unmutated tree does not build:\n{log}"),
        Outcome::TimedOut(phase) => panic!("the unmutated suite timed out in its {phase}"),
    };
    let baseline = baseline.elapsed();
    let test_limit = baseline * 5 + TEST_SLACK;
    eprintln!("baseline: {n_tests} tests pass ({:.0?})", baseline);

    let mut problems = Vec::new();
    let mut flakes: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    for t in base_flaky {
        flakes.entry(t).or_default().push("baseline");
    }
    let mut matrix: Vec<(&Mutant, String, BTreeSet<String>, Duration)> = Vec::new();
    for m in &rows {
        let path = tree.join(&m.file);
        let original = fs::read_to_string(&path).expect("read mutant file");
        assert_eq!(
            original.matches(m.needle.as_str()).count(),
            1,
            "{}: needle",
            m.id
        );
        fs::write(&path, original.replacen(&m.needle, &m.replacement, 1)).expect("plant");
        let t = Instant::now();
        let outcome = run_suite(&tree, &target_dir, test_limit);
        let wall = t.elapsed();
        fs::write(&path, &original).expect("restore");
        let (status, killers) = match outcome {
            Outcome::Ran { failed, flaky, .. } => {
                for t in flaky {
                    flakes.entry(t).or_default().push(&m.id);
                }
                let status = if failed.is_empty() {
                    "survived"
                } else {
                    "killed"
                };
                (status.to_string(), failed)
            }
            Outcome::NoBuild(log) => {
                problems.push(format!("{}: invalid row, does not build:\n{log}", m.id));
                ("no-build".to_string(), BTreeSet::new())
            }
            Outcome::TimedOut(phase) => {
                problems.push(format!("{}: invalid row, timed out in its {phase}", m.id));
                (format!("timeout-{phase}"), BTreeSet::new())
            }
        };
        if m.killer == CONTROL {
            if status != "survived" {
                problems.push(format!(
                    "{}: the control must survive, got {status} by {killers:?}",
                    m.id
                ));
            }
        } else if status == "survived" {
            problems.push(format!("{}: survived every test", m.id));
        } else if status == "killed" && !killers.contains(&m.killer) {
            problems.push(format!(
                "{}: {} is not among its killers {killers:?}",
                m.id, m.killer
            ));
        }
        eprintln!(
            "{:<40} {status:<9} {:>3} killers ({:.0?})",
            m.id,
            killers.len(),
            wall
        );
        matrix.push((m, status, killers, wall));
    }

    // Row view: each mutant and its killers.
    let mut tsv = String::from("id\tstatus\tn_killers\twall_s\tkillers\n");
    for (m, status, killers, wall) in &matrix {
        let list: Vec<&str> = killers.iter().map(String::as_str).collect();
        let _ = writeln!(
            tsv,
            "{}\t{status}\t{}\t{:.0}\t{}",
            m.id,
            killers.len(),
            wall.as_secs_f64(),
            list.join(",")
        );
    }
    // Column view: each test that killed anything, and the mutants only it kills.
    let mut by_test: BTreeMap<&str, (Vec<&str>, Vec<&str>)> = BTreeMap::new();
    for (m, _, killers, _) in &matrix {
        for k in killers {
            let entry = by_test.entry(k.as_str()).or_default();
            entry.0.push(&m.id);
            if killers.len() == 1 {
                entry.1.push(&m.id);
            }
        }
    }
    let mut md = format!(
        "{} mutants + control over {n_tests} tests; baseline {:.0} s, whole run {:.0} s.\n\n\
         | mutant | status | killers | named killer |\n|---|---|---:|---|\n",
        rows.len() - 1,
        baseline.as_secs_f64(),
        started.elapsed().as_secs_f64()
    );
    for (m, status, killers, _) in &matrix {
        let _ = writeln!(
            md,
            "| `{}` | {status} | {} | `{}` |",
            m.id,
            killers.len(),
            m.killer
        );
    }
    md.push_str("\n| test | kills | sole killer of |\n|---|---|---|\n");
    for (test, (kills, sole)) in &by_test {
        let _ = writeln!(
            md,
            "| `{test}` | {} | {} |",
            kills.join(", "),
            sole.join(", ")
        );
    }
    if !flakes.is_empty() {
        md.push_str("\nFailed once and passed when re-run (not counted):\n\n");
        for (test, runs) in &flakes {
            let _ = writeln!(md, "- `{test}`: {}", runs.join(", "));
        }
    }
    fs::write(work.join("matrix.tsv"), &tsv).expect("write matrix.tsv");
    fs::write(work.join("matrix.md"), &md).expect("write matrix.md");
    println!("{md}");
    assert!(problems.is_empty(), "kill matrix:\n{}", problems.join("\n"));
}

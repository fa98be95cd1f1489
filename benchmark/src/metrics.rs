//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their regression bounds, and the per-layer metrics. `BENCHMARK.json` at
//! the repository root is a rendering of these tables (`hfbench manifest`),
//! and a test holds the two together.

use crate::json::Json;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative: better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim-fold",
        why: "simulate --fold then report: agents, sim, shell, honeypot and collector do ~90% of the work; snapshot codec and cluster do none",
    },
    Workload {
        name: "snapshot-analyze",
        why: "report --streaming + cluster --streaming over an hfstore file: chunk verify/decode, fold and k-means do all the work; shell and sim do none",
    },
    Workload {
        name: "snapshot-persist",
        why: "the same rows held in memory: snapshot writer, materialized read, fold and cluster; shows a reader gain that costs the writer or bytes on disk",
    },
    Workload {
        name: "wire-table1",
        why: "live farm over loopback TCP, closed loop, sessions mixed as the paper's Table 1 so ~70% never reach the shell: reactor, proto and kernel work",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sessions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_session",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "session_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "session_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stored_bytes_per_session",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
    },
];

/// The eight scenario scripts of `tests/scenarios/`, with the share of
/// sessions (per mille) each gets on `wire-table1`: the paper's Table 1.
pub const SCENARIOS: [(&str, u32); 8] = [
    ("scan_no_cred", 277),
    ("ssh_fail_close", 400),
    ("telnet_bruteforce", 20),
    ("no_cmd_idle", 116),
    ("recon_cmd", 120),
    ("trojan_key", 60),
    ("mirai_download", 4),
    ("tftp_download", 3),
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Per-layer metrics in the order they print. A name ending in `_s` is the
/// self time of the spans of that name, summed over one repetition; a plain
/// name is an exact count. A layer a workload does not enter reads 0 there.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
    };
    for name in [
        "agents.init_s",
        "agents.plan_day_s",
        "sim.prepare_day_s",
        "sim.execute_s",
        "farm.collector_ingest_s",
        "farm.retire_rows_s",
        "farm.snapshot_open_s",
        "farm.chunk_wait_s",
        "farm.chunk_scan_s",
        "hash.verify_s",
        "honeypot.artifact_replay_s",
        "sim.to_snapshot_s",
        "farm.snapshot_encode_s",
        "farm.snapshot_file_write_s",
        "farm.snapshot_read_s",
        "sim.from_snapshot_s",
        "core.fold_ingest_s",
        "core.fold_finish_s",
        "core.aggregates_compute_s",
        "core.report_build_s",
        "core.report_write_s",
        "core.claims_s",
        "cluster.feature_fold_s",
        "cluster.extract_s",
        "cluster.matrix_s",
        "cluster.kmeans_s",
        "cluster.render_s",
        "wire.farm_start_s",
        "wire.drive_s",
        "wire.shutdown_s",
        "wire.to_snapshot_s",
    ] {
        add(name, "s", Lower);
    }
    for name in [
        "agents.plans",
        "sim.sessions",
        "farm.rows_ingested",
        "farm.chunks",
        "farm.rows",
        "cluster.clients",
        "cluster.k",
        "wire.accepted",
        "wire.ingested",
        "wire.open_peak",
    ] {
        add(name, "count", Higher);
    }
    add("wire.rejected", "count", Lower);
    add("core.report_bytes", "B", Lower);
    add("farm.snapshot_bytes", "B", Lower);
    add("farm.encode_mib_per_s", "MiB/s", Higher);
    add("wire.connect_p50_us", "us", Lower);
    add("wire.first_byte_p50_us", "us", Lower);
    add("wire.cpu_user_us_per_session", "us", Lower);
    add("wire.cpu_sys_us_per_session", "us", Lower);
    add("wire.bytes_in_per_session", "B", Lower);
    for (scenario, _) in SCENARIOS {
        add(&format!("wire.session_p50_us.{scenario}"), "us", Lower);
    }
    // Kernels timed beside the repetitions, the same on every workload.
    for (scenario, _) in SCENARIOS {
        add(&format!("honeypot.replay_us.{scenario}"), "us", Lower);
    }
    add("shell.lex_ns_per_line", "ns", Lower);
    add("hash.sha256_mib_per_s.4mib", "MiB/s", Higher);
    add("hash.sha256_mib_per_s.600b", "MiB/s", Higher);
    add("trace.unattributed_share", "ratio", Lower);
    add("trace.overhead_share", "ratio", Lower);
    v
}

/// The command the driver runs from the repository root; it appends
/// `--workload W --seed N --seconds S --trace T`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS.into())),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name.as_str())),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_weights_are_per_mille() {
        assert_eq!(SCENARIOS.iter().map(|(_, w)| w).sum::<u32>(), 1000);
    }

    #[test]
    fn names_units_and_sizes_are_within_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(per_layer().into_iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        assert!(layers.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(manifest().render_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert!(
            committed == manifest().render_pretty(),
            "BENCHMARK.json is stale: regenerate it with `hfbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }
}

//! The two snapshot workloads, over the same simulated dataset.
//!
//! `snapshot-analyze` reads an hfstore file the way `hfarm report
//! --streaming` and `hfarm cluster --streaming` do: two passes, chunk by
//! chunk, rows never materialized. The file is written by a child process
//! ([`write_fixture`]), so this process's peak memory tests that claim.
//!
//! `snapshot-persist` holds the same rows in memory and goes the other way
//! round: encode and write the file, read it back whole, then the
//! materialized fold, report and clustering.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::time::Instant;

use honeyfarm::cluster::{self, ClusterRun, FeatureFold, HeadMap, KMeansConfig};
use honeyfarm::core::{Aggregates, StreamingFold};
use honeyfarm::farm::snapshot::ROWS_PER_CHUNK;
use honeyfarm::farm::{Dataset, Snapshot, SnapshotReader};
use honeyfarm::hash::Sha256;
use honeyfarm::honeypot::ArtifactStore;
use honeyfarm::prelude::{FoldOutput, SimConfig, SimOutput, Simulation};
use honeyfarm::testkit::diff_datasets;

use super::{digest_tree, dir_bytes, write_cluster, write_report, Config, Rep, Verdict, Workload};
use crate::ledger::Ledger;

const SNAPSHOT_FILE: &str = "farm.hfstore";
const EXPECTED_FILE: &str = "expected.txt";
/// Bytes of one stored row (`hf_farm::snapshot` format, version 2).
const ROW_BYTES: usize = 48;

/// `hfbench fixture`: simulate, write the snapshot into `dir`, and beside it
/// the digests the materialized report and clustering of the same run give.
pub fn write_fixture(config: &SimConfig, dir: &Path) {
    std::fs::create_dir_all(dir).expect("fixture directory is writable");
    let sim = Simulation::run(config.clone());
    sim.to_snapshot(config)
        .write_file(dir.join(SNAPSHOT_FILE))
        .expect("snapshot file is writable");
    let expected = dir.join("expected");
    let agg = Aggregates::compute(&sim.dataset);
    let l = &mut Ledger::off();
    write_report(l, &sim.dataset, &agg, &sim.tags, &expected);
    let run = ClusterRun::over(&sim.dataset, 1, &KMeansConfig::default());
    write_cluster(l, &run, &expected);
    let lines: String = ["report", "cluster"]
        .iter()
        .map(|part| format!("{part} {}\n", digest_tree(&expected.join(part))))
        .collect();
    std::fs::write(dir.join(EXPECTED_FILE), lines).expect("digest file is writable");
    std::fs::remove_dir_all(&expected).expect("scratch output can be removed");
}

fn open(path: &Path) -> BufReader<File> {
    BufReader::new(File::open(path).expect("the fixture child wrote the snapshot"))
}

pub struct Analyze {
    snapshot: PathBuf,
    /// `(part, digest)` of the materialized outputs, from the fixture child.
    expected: Vec<(String, String)>,
}

impl Analyze {
    pub fn set_up(cfg: &Config, work: &Path) -> Self {
        let dir = work.join("fixture");
        let exe = std::env::current_exe().expect("own executable path");
        let status = std::process::Command::new(exe)
            .args(["fixture", "--seed", &cfg.seed.to_string()])
            .args(["--scale", &cfg.scale.to_string()])
            .args(["--days", &cfg.days.to_string()])
            .arg("--dir")
            .arg(&dir)
            .status()
            .expect("fixture child starts");
        assert!(status.success(), "fixture child failed: {status}");
        let expected = std::fs::read_to_string(dir.join(EXPECTED_FILE))
            .expect("the fixture child wrote its digests")
            .lines()
            .filter_map(|line| line.split_once(' '))
            .map(|(part, digest)| (part.to_string(), digest.to_string()))
            .collect();
        Analyze {
            snapshot: dir.join(SNAPSHOT_FILE),
            expected,
        }
    }
}

impl Workload for Analyze {
    fn one_call(&mut self, out: &Path) -> Rep {
        let fold = FoldOutput::from_snapshot_stream(open(&self.snapshot))
            .expect("the fixture snapshot streams");
        let l = &mut Ledger::off();
        write_report(l, &fold.dataset, &fold.aggregates, &fold.tags, out);
        let (_plan, features) = cluster::features_from_snapshot_stream(open(&self.snapshot))
            .expect("the fixture snapshot streams");
        let run = ClusterRun::finish(features, &KMeansConfig::default());
        write_cluster(l, &run, out);
        Rep {
            attempted: fold.aggregates.total_sessions,
            ..Rep::default()
        }
    }

    /// `FoldOutput::from_snapshot_stream` and
    /// `cluster::features_from_snapshot_stream`, restated with the folds in
    /// this file's own closures. `farm.chunk_wait` is the span around
    /// `fold_chunks`; its self time is the time spent outside the closures:
    /// reading, verifying and decoding chunks, or waiting for the prefetch
    /// thread to do so.
    fn staged(&mut self, out: &Path, l: &mut Ledger) -> Rep {
        let reader = l.time("farm.snapshot_open", |_| {
            SnapshotReader::open(open(&self.snapshot)).expect("the fixture snapshot opens")
        });
        let mut fold = StreamingFold::new(reader.plan().len());
        let mut artifacts = ArtifactStore::new();
        let (mut chunks, mut rows_seen, mut last_day) = (0u64, 0u64, 0u32);
        let (_meta, plan, sessions, tags) = l
            .time("farm.chunk_wait", |l| {
                reader.fold_chunks(|store, plan, rows| {
                    chunks += 1;
                    rows_seen += rows.len() as u64;
                    l.time("honeypot.artifact_replay", |_| {
                        for row in rows {
                            let v = store.view_row(row);
                            assert!(v.day() >= last_day, "fixture rows are day-ordered");
                            last_day = v.day();
                            for h in v.file_hashes() {
                                artifacts.observe_hash(h, 0, v.start());
                            }
                            for &id in v.download_hash_ids() {
                                artifacts.observe_hash(store.digests.get(id), 0, v.start());
                            }
                        }
                    });
                    l.time("core.fold_ingest", |_| {
                        for row in rows {
                            fold.ingest(plan, &store.view_row(row));
                        }
                        fold.drain_freshness();
                    });
                    Ok(())
                })
            })
            .expect("the fixture snapshot streams");
        let aggregates = l.time("core.fold_finish", |_| fold.finish());
        let dataset = Dataset {
            sessions,
            artifacts,
            plan,
        };
        write_report(l, &dataset, &aggregates, &tags, out);

        let reader = l.time("farm.snapshot_open", |_| {
            SnapshotReader::open(open(&self.snapshot)).expect("the fixture snapshot opens")
        });
        let mut heads = HeadMap::new();
        let mut feature_fold = FeatureFold::new();
        let (_meta, plan, _sessions, _tags) = l
            .time("farm.chunk_wait", |l| {
                reader.fold_chunks(|store, plan, rows| {
                    l.time("cluster.feature_fold", |_| {
                        heads.sync(&store.commands);
                        for row in rows {
                            feature_fold.ingest(plan, &heads, &store.view_row(row));
                        }
                    });
                    Ok(())
                })
            })
            .expect("the fixture snapshot streams");
        let features = l.time("cluster.feature_fold", |_| feature_fold.finish(plan.len()));
        let mut layer = cluster_and_write(l, features, out);
        layer.push(("farm.chunks".into(), chunks as f64));
        layer.push(("farm.rows".into(), rows_seen as f64));
        assert_eq!(rows_seen, aggregates.total_sessions);
        Rep {
            attempted: aggregates.total_sessions,
            layer,
            ..Rep::default()
        }
    }

    fn verify(&mut self, _out: &Path, digests: &[(String, String)]) -> Verdict {
        let mut errors = Vec::new();
        for (part, want) in &self.expected {
            let got = digests.iter().find(|(p, _)| p == part).map(|(_, d)| d);
            if got != Some(want) {
                errors.push(format!(
                    "{part}: streamed output {got:?} differs from the materialized {want}"
                ));
            }
        }
        Verdict {
            errors,
            layer: vec![(
                "farm.snapshot_bytes".into(),
                file_len(&self.snapshot) as f64,
            )],
        }
    }

    /// The snapshot analysed counts as stored, as it does on
    /// `snapshot-persist`, which writes the same file itself.
    fn stored_bytes(&self, out: &Path) -> u64 {
        file_len(&self.snapshot) + dir_bytes(out)
    }

    /// What one more pass over the file costs (verify and decode every
    /// chunk, fold nothing), and what the checksums alone cost: SHA-256 over
    /// the same number of bytes in chunk-sized pieces, reads not timed.
    fn beside(&mut self) -> Vec<(String, f64)> {
        let reader = SnapshotReader::open(open(&self.snapshot)).expect("snapshot opens");
        let t = Instant::now();
        reader
            .fold_chunks(|_, _, rows| {
                std::hint::black_box(rows);
                Ok(())
            })
            .expect("snapshot streams");
        let scan = t.elapsed().as_secs_f64();

        let mut file = File::open(&self.snapshot).expect("snapshot opens");
        let mut piece = vec![0u8; ROWS_PER_CHUNK as usize * ROW_BYTES];
        let mut hashing = 0.0;
        loop {
            let n = read_full(&mut file, &mut piece);
            if n == 0 {
                break;
            }
            let t = Instant::now();
            std::hint::black_box(Sha256::digest(&piece[..n]));
            hashing += t.elapsed().as_secs_f64();
        }
        vec![
            ("farm.chunk_scan_s".into(), scan),
            ("hash.verify_s".into(), hashing),
        ]
    }
}

/// `ClusterRun::finish` restated (matrix, then k-means) and both tables
/// written; returns the exact counts of the clustering.
fn cluster_and_write(
    l: &mut Ledger,
    features: cluster::ClientFeatures,
    out: &Path,
) -> Vec<(String, f64)> {
    let matrix = l.time("cluster.matrix", |_| features.matrix());
    let output = l.time("cluster.kmeans", |_| {
        cluster::cluster(&matrix, &KMeansConfig::default())
    });
    let run = ClusterRun {
        features,
        matrix,
        output,
    };
    write_cluster(l, &run, out);
    vec![
        ("cluster.clients".into(), run.features.len() as f64),
        ("cluster.k".into(), run.output.k as f64),
    ]
}

/// Fill `buf` from `r` as far as the stream allows; returns the bytes read.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> usize {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]).expect("snapshot file reads") {
            0 => break,
            n => filled += n,
        }
    }
    filled
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

pub struct Persist {
    config: SimConfig,
    sim: SimOutput,
}

impl Persist {
    pub fn set_up(cfg: &Config) -> Self {
        let config = cfg.sim();
        Persist {
            sim: Simulation::run(config.clone()),
            config,
        }
    }
}

impl Workload for Persist {
    fn one_call(&mut self, out: &Path) -> Rep {
        let path = out.join(SNAPSHOT_FILE);
        self.sim
            .to_snapshot(&self.config)
            .write_file(&path)
            .expect("snapshot file is writable");
        let loaded =
            SimOutput::from_snapshot(Snapshot::read_file(&path).expect("own snapshot reads back"));
        let agg = Aggregates::compute(&loaded.dataset);
        let l = &mut Ledger::off();
        write_report(l, &loaded.dataset, &agg, &loaded.tags, out);
        let run = ClusterRun::over(&loaded.dataset, 1, &KMeansConfig::default());
        write_cluster(l, &run, out);
        Rep {
            attempted: loaded.dataset.len() as u64,
            ..Rep::default()
        }
    }

    /// The same, with the encoder separated from the file write (`write_to`
    /// into memory, then one `fs::write`) so each gets its own span. The
    /// runner's digest of the file then also shows that the two ways of
    /// writing give the same bytes.
    fn staged(&mut self, out: &Path, l: &mut Ledger) -> Rep {
        let path = out.join(SNAPSHOT_FILE);
        let snapshot = l.time("sim.to_snapshot", |_| self.sim.to_snapshot(&self.config));
        let bytes = l.time("farm.snapshot_encode", |_| {
            let mut bytes = Vec::new();
            snapshot.write_to(&mut bytes).expect("encoding into memory");
            bytes
        });
        let encode_s = l.last_duration("farm.snapshot_encode");
        l.time("farm.snapshot_file_write", |_| {
            std::fs::write(&path, &bytes).expect("snapshot file is writable")
        });
        let n_bytes = bytes.len();
        drop((snapshot, bytes));
        let snapshot = l.time("farm.snapshot_read", |_| {
            Snapshot::read_file(&path).expect("own snapshot reads back")
        });
        let loaded = l.time("sim.from_snapshot", |_| SimOutput::from_snapshot(snapshot));
        let agg = l.time("core.aggregates_compute", |_| {
            Aggregates::compute(&loaded.dataset)
        });
        write_report(l, &loaded.dataset, &agg, &loaded.tags, out);
        let features = l.time("cluster.extract", |_| cluster::extract(&loaded.dataset));
        let mut layer = cluster_and_write(l, features, out);
        layer.push((
            "farm.encode_mib_per_s".into(),
            n_bytes as f64 / (1024.0 * 1024.0) / encode_s,
        ));
        layer.push(("farm.rows".into(), loaded.dataset.len() as f64));
        Rep {
            attempted: loaded.dataset.len() as u64,
            layer,
            ..Rep::default()
        }
    }

    fn verify(&mut self, out: &Path, _digests: &[(String, String)]) -> Verdict {
        Verdict {
            errors: Vec::new(),
            layer: vec![(
                "farm.snapshot_bytes".into(),
                file_len(&out.join(SNAPSHOT_FILE)) as f64,
            )],
        }
    }

    /// Encoding again gives the bytes on disk, and what reads back is the
    /// dataset that was written, field by field.
    fn final_checks(&mut self, out: &Path) -> Vec<String> {
        let path = out.join(SNAPSHOT_FILE);
        let mut errors = Vec::new();
        let mut again = Vec::new();
        self.sim
            .to_snapshot(&self.config)
            .write_to(&mut again)
            .expect("encoding into memory");
        if again != std::fs::read(&path).expect("snapshot file reads") {
            errors.push("encoding the same run again gives other bytes than the file".into());
        }
        let loaded =
            SimOutput::from_snapshot(Snapshot::read_file(&path).expect("own snapshot reads back"));
        let diff = diff_datasets("held", &self.sim.dataset, "read back", &loaded.dataset);
        if !diff.is_identical() {
            errors.push(format!("read-back dataset differs:\n{}", diff.render()));
        }
        errors
    }
}

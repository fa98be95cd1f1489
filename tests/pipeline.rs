//! End-to-end integration: simulate → collect → aggregate → report → claims,
//! exercising every crate boundary in one flow.

use honeyfarm::core::classify::{classify, Category};
use honeyfarm::prelude::*;

fn run_small() -> (SimOutput, Aggregates) {
    let out = Simulation::run(SimConfig {
        seed: 1234,
        scale: Scale::of(0.001),
        window: StudyWindow::first_days(45),
        ..SimConfig::default()
    });
    let agg = Aggregates::compute(&out.dataset);
    (out, agg)
}

#[test]
fn full_pipeline_produces_consistent_report() {
    let (out, agg) = run_small();
    let report = Report::build_with_tags(&out.dataset, &agg, &out.tags);

    // Table 1 shares sum to 1 and match the classifier's direct counts.
    let share_sum: f64 = report.table1.rows.iter().map(|r| r.share).sum();
    assert!((share_sum - 1.0).abs() < 1e-9);
    let mut direct = [0u64; 5];
    for v in out.dataset.sessions.iter() {
        direct[classify(&v).index()] += 1;
    }
    for row in &report.table1.rows {
        assert_eq!(
            row.sessions,
            direct[row.category.index()],
            "{}",
            row.category
        );
    }

    // Flow diagram is monotone.
    let f5 = &report.fig5;
    assert!(f5.total >= f5.with_creds);
    assert!(f5.with_creds >= f5.login_ok);
    assert!(f5.login_ok >= f5.with_cmds);
    assert!(f5.with_cmds >= f5.with_uri);
    assert_eq!(f5.total, out.dataset.len() as u64);

    // Fig. 2 rank series covers all honeypots and is descending.
    assert_eq!(report.fig2.series.len(), out.dataset.plan.len());
    assert!(report.fig2.series.windows(2).all(|w| w[0].1 >= w[1].1));

    // Hash tables are sorted by their keys and carry tags.
    let t4 = &report.table4;
    assert!(t4.rows.windows(2).all(|w| w[0].sessions >= w[1].sessions));
    let t5 = &report.table5;
    assert!(t5.rows.windows(2).all(|w| w[0].clients >= w[1].clients));
    let t6 = &report.table6;
    assert!(t6.rows.windows(2).all(|w| w[0].days >= w[1].days));
    assert!(t4.rows.iter().all(|r| !r.tag.is_empty()));

    // Duration ECDFs: NO_CRED is shortest-lived, NO_CMD longest.
    let ecdf = |cat: Category| {
        report
            .fig7
            .ecdfs
            .iter()
            .find(|(c, _)| *c == cat)
            .map(|(_, e)| e.clone())
            .unwrap()
    };
    assert!(ecdf(Category::NoCred).median().unwrap() < ecdf(Category::NoCmd).median().unwrap());

    // Daily IP counts: overall >= each category.
    for row in &report.fig11.daily {
        for ci in 0..5 {
            assert!(row[ci] <= row[5]);
        }
    }
}

#[test]
fn report_writes_all_files() {
    let (out, agg) = run_small();
    let report = Report::build_with_tags(&out.dataset, &agg, &out.tags);
    let dir = std::env::temp_dir().join(format!("hf_report_{}", std::process::id()));
    report.write_dir(&dir).expect("write");
    let expected = [
        "table1.tsv",
        "table2.tsv",
        "table3.tsv",
        "table4.tsv",
        "table5.tsv",
        "table6.tsv",
        "fig01_deployment.tsv",
        "fig02_sessions_per_honeypot.tsv",
        "fig03_bands_top5.tsv",
        "fig04_bands_all.tsv",
        "fig05_flow.tsv",
        "fig06_category_timeseries.tsv",
        "fig07_duration_ecdf.tsv",
        "fig08_category_bands_all.tsv",
        "fig09_category_bands_top5.tsv",
        "fig10_23_client_countries.tsv",
        "fig11_daily_ips.tsv",
        "fig12_spread_ecdf.tsv",
        "fig13_days_ecdf.tsv",
        "fig14_clients_per_honeypot.tsv",
        "fig15_multirole.tsv",
        "fig16_24_regional.tsv",
        "fig17_freshness.tsv",
        "fig18_19_hashes_per_honeypot.tsv",
        "fig20_clients_per_hash.tsv",
        "fig21_hashes_per_client.tsv",
        "fig22_campaign_length.tsv",
        "summary.md",
    ];
    for name in expected {
        let path = dir.join(name);
        let meta = std::fs::metadata(&path).unwrap_or_else(|_| panic!("missing {name}"));
        assert!(meta.len() > 0, "{name} is empty");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn determinism_across_full_pipeline() {
    let (out_a, agg_a) = run_small();
    let (out_b, agg_b) = run_small();
    assert_eq!(out_a.dataset.len(), out_b.dataset.len());
    let claims_a = Claims::compute(&agg_a);
    let claims_b = Claims::compute(&agg_b);
    assert_eq!(claims_a.to_json(), claims_b.to_json());
    let r_a = Report::build_with_tags(&out_a.dataset, &agg_a, &out_a.tags);
    let r_b = Report::build_with_tags(&out_b.dataset, &agg_b, &out_b.tags);
    assert_eq!(r_a.table1.to_tsv(), r_b.table1.to_tsv());
    assert_eq!(r_a.table4.to_tsv(), r_b.table4.to_tsv());
    assert_eq!(r_a.fig17.to_tsv(), r_b.fig17.to_tsv());
}

#[test]
fn tagdb_covers_every_observed_hash() {
    let (out, agg) = run_small();
    for (hid, h) in agg.hashes.iter().enumerate() {
        if h.sessions == 0 {
            continue;
        }
        let digest = out.dataset.sessions.digests.get(hid as u32);
        assert!(
            out.tags.tag(&digest).is_some(),
            "hash {} has no tag",
            digest.short()
        );
        assert!(out.tags.campaign(&digest).is_some());
    }
}

#[test]
fn cowrie_log_renders_for_sampled_sessions() {
    let (out, _) = run_small();
    // Reconstruct a record-like line stream from stored sessions via the
    // live-log path: take a few intrusion sessions and check they format.
    let mut checked = 0;
    for v in out.dataset.sessions.iter() {
        if v.n_commands() > 0 && checked < 5 {
            // The store is lossy only in that it interned strings; event
            // rendering needs a SessionRecord, so build a minimal one.
            let rec = SessionRecord {
                honeypot: v.honeypot(),
                protocol: v.protocol(),
                client_ip: v.client_ip(),
                client_port: 1,
                start: v.start(),
                duration_secs: v.duration_secs(),
                ended_by: v.ended_by(),
                ssh_client_version: v.ssh_version().map(|s| s.to_string()),
                logins: v
                    .logins()
                    .map(|(u, p, ok)| honeyfarm::honeypot::LoginAttempt {
                        creds: honeyfarm::proto::creds::Credentials::new(u, p),
                        accepted: ok,
                    })
                    .collect(),
                commands: v
                    .commands()
                    .map(|(c, known)| honeyfarm::shell::CommandRecord {
                        input: c.to_string(),
                        known,
                    })
                    .collect(),
                uris: v.uris().map(|u| u.to_string()).collect(),
                file_hashes: v.file_hashes().collect(),
                download_hashes: vec![],
            };
            let lines = honeyfarm::farm::EventLog::render(&rec);
            assert!(lines.len() >= 2);
            for l in lines {
                honeyfarm::obs::json::Json::parse(&l).expect("valid json");
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 5);
}

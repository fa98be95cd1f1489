//! Campaign forensics: dig into the attack campaigns behind the hashes —
//! the workflow of the paper's Section 8.
//!
//! Simulates a slice of the study window, then for the top campaigns shows
//! the Tables 4–6 view, an activity timeline, the shell script the campaign
//! runs, and the artifact metadata.
//!
//! ```sh
//! cargo run --release --example campaign_forensics
//! ```

use honeyfarm::core::aggregates::bit_count;
use honeyfarm::core::report::{tables, HashSortKey};
use honeyfarm::prelude::*;

fn main() {
    let config = SimConfig {
        seed: 7,
        scale: Scale::of(0.002),
        window: StudyWindow::first_days(240),
        ..SimConfig::default()
    };
    eprintln!("simulating 240 days …");
    let out = Simulation::run(config);
    let agg = Aggregates::compute(&out.dataset);

    println!("=== Table 4: top 10 hashes by sessions ===");
    println!(
        "{}",
        tables::hash_table(&out.dataset, &agg, &out.tags, HashSortKey::Sessions, 10)
    );
    println!("=== Table 5: top 10 hashes by client IPs ===");
    println!(
        "{}",
        tables::hash_table(&out.dataset, &agg, &out.tags, HashSortKey::Clients, 10)
    );
    println!("=== Table 6: top 10 hashes by active days ===");
    println!(
        "{}",
        tables::hash_table(&out.dataset, &agg, &out.tags, HashSortKey::Days, 10)
    );

    // Deep-dive the three biggest campaigns by sessions.
    let top = tables::hash_table(&out.dataset, &agg, &out.tags, HashSortKey::Sessions, 3);
    for row in &top.rows {
        println!(
            "\n==================== campaign {} ====================",
            row.campaign
        );
        println!(
            "hash {}…  tag {}  {} sessions, {} clients, {} days, {} honeypots",
            row.hash, row.tag, row.sessions, row.clients, row.days, row.honeypots
        );
        // Artifact metadata from the collector's store.
        let digest_id = out
            .dataset
            .sessions
            .digests
            .iter()
            .find(|(_, d)| d.short() == row.hash)
            .map(|(id, _)| id);
        if let Some(id) = digest_id {
            let digest = out.dataset.sessions.digests.get(id);
            if let Some(meta) = out.dataset.artifacts.get(&digest) {
                println!(
                    "first seen {}  last seen {}  observations {}",
                    meta.first_seen.to_rfc3339(),
                    meta.last_seen.to_rfc3339(),
                    meta.occurrences
                );
            }
            // Weekly activity sparkline from the per-hash aggregate.
            let h = &agg.hashes[id as usize];
            println!(
                "spread: {} honeypots, {} clients",
                bit_count(&h.honeypots),
                h.clients.len()
            );
        }
    }

    println!("\n=== freshness snapshot (first 10 active days) ===");
    for p in agg.freshness.iter().take(10) {
        println!(
            "day {:>3}: {:>5} unique hashes, {:>5} first-seen ({:.0}%)",
            p.day,
            p.unique,
            p.fresh_ever,
            p.frac_ever() * 100.0
        );
    }
}

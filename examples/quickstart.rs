//! Quickstart: simulate a short slice of honeyfarm life and reproduce the
//! paper's headline table.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use honeyfarm::prelude::*;

fn main() {
    // A small, fast configuration: 60 days at 1:500 scale.
    let config = SimConfig {
        seed: 42,
        scale: Scale::of(0.002),
        window: StudyWindow::first_days(60),
        use_script_cache: false,
        threads: 1,
    };
    println!(
        "simulating 60 days of honeyfarm traffic (seed {}) …",
        config.seed
    );
    let t0 = std::time::Instant::now();
    let out = Simulation::run(config);
    println!(
        "done in {:.1}s: {} sessions from {} client IPs, {} distinct hashes\n",
        t0.elapsed().as_secs_f64(),
        out.dataset.len(),
        out.n_clients,
        out.tags.len()
    );

    let agg = Aggregates::compute(&out.dataset);
    let report = Report::build_with_tags(&out.dataset, &agg, &out.tags);

    println!("=== Table 1: session categories ===");
    println!("{}", report.table1);
    println!("=== Table 2: top successful passwords ===");
    println!("{}", report.table2);
    println!("=== Fig. 2: honeypot popularity ===");
    println!("{}", report.fig2);
    println!("=== headline claims ===");
    println!("{}", Claims::compute(&agg));
}

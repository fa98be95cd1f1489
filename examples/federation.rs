//! Federated honeyfarms (paper Section 9): quantify what two independent
//! honeyfarm operators gain by pooling their data.
//!
//! Simulates two farms observing *different* slices of the attack ecosystem
//! (different seeds → different long-tail campaigns and client populations,
//! same headline botnets), then reports coverage and early-warning gains.
//!
//! ```sh
//! cargo run --release --example federation
//! ```

use honeyfarm::core::federation::{federate, FarmSightings};
use honeyfarm::prelude::*;

fn run_farm(name: &str, seed: u64) -> FarmSightings {
    eprintln!("simulating {name} (seed {seed}) …");
    let out = Simulation::run(SimConfig {
        seed,
        scale: Scale::of(0.002),
        window: StudyWindow::first_days(180),
        ..SimConfig::default()
    });
    println!(
        "{name}: {} sessions, {} hashes",
        out.dataset.len(),
        out.tags.len()
    );
    FarmSightings::from_dataset(name, &out.dataset)
}

fn main() {
    let alpha = run_farm("alpha", 101);
    let beta = run_farm("beta", 202);
    let gamma = run_farm("gamma", 303);

    println!("\n=== two-member federation (alpha + beta) ===");
    println!("{}", federate(&[alpha.clone(), beta.clone()]));

    println!("=== three-member federation ===");
    println!("{}", federate(&[alpha, beta, gamma]));

    println!(
        "The paper's argument (Section 9): no single farm sees more than a\n\
         fraction of the hash universe, so sharing 'will substantially improve\n\
         the visibility … but also has the potential to identify such activity\n\
         earlier'. The union coverage factor and the detection-lead numbers\n\
         above are that argument, quantified."
    );
}

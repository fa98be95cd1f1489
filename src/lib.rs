//! # honeyfarm
//!
//! A production-quality Rust reproduction of *"Fifteen Months in the Life of
//! a Honeyfarm"* (IMC 2023): a from-scratch Cowrie-class SSH/Telnet
//! honeypot, a 221-node honeyfarm with a central collector, a calibrated
//! synthetic attacker ecosystem standing in for the paper's private dataset,
//! and the complete measurement pipeline reproducing every table and figure.
//!
//! ## Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`hash`] | `hf-hash` | SHA-256 / hex / FNV-1a, from scratch |
//! | [`simclock`] | `hf-simclock` | civil calendar, day windows |
//! | [`geo`] | `hf-geo` | synthetic Internet registry + geolocation |
//! | [`proto`] | `hf-proto` | SSH ident strings, Telnet codec, credentials |
//! | [`shell`] | `hf-shell` | the emulated Unix shell |
//! | [`honeypot`] | `hf-honeypot` | session state machine + records + logs |
//! | [`farm`] | `hf-farm` | deployment, collector, columnar store |
//! | [`agents`] | `hf-agents` | the attacker ecosystem |
//! | [`sim`] | `hf-sim` | the 15-month simulator |
//! | [`core`] | `hf-core` | classification, metrics, tables & figures |
//! | [`cluster`] | `hf-cluster` | attacker clustering: features + seeded k-means |
//! | [`testkit`] | `hf-testkit` | scenario replay, differential oracles, fuzzing |
//! | [`obs`] | `hf-obs` | runtime metrics, span timing, run manifests |
//! | [`wire`] | `hf-wire` | live TCP farm: epoll reactor, loadgen, wire client |
//!
//! ## Quickstart
//!
//! ```no_run
//! use honeyfarm::prelude::*;
//!
//! // Simulate a (scaled-down) fifteen months of honeyfarm traffic …
//! let out = Simulation::run(SimConfig::default());
//! // … run the paper's measurement pipeline over it …
//! let agg = Aggregates::compute(&out.dataset);
//! // … and reproduce the paper's tables.
//! let report = Report::build_with_tags(&out.dataset, &agg, &out.tags);
//! println!("{}", report.table1);
//! println!("{}", Claims::compute(&agg));
//! ```

pub use hf_agents as agents;
pub use hf_cluster as cluster;
pub use hf_core as core;
pub use hf_farm as farm;
pub use hf_geo as geo;
pub use hf_hash as hash;
pub use hf_honeypot as honeypot;
pub use hf_obs as obs;
pub use hf_proto as proto;
pub use hf_shell as shell;
pub use hf_sim as sim;
pub use hf_simclock as simclock;
pub use hf_testkit as testkit;
pub use hf_wire as wire;

/// The most common imports in one place.
pub mod prelude {
    pub use hf_agents::{Ecosystem, EcosystemConfig, Scale};
    pub use hf_cluster::{ClusterRun, KMeansConfig};
    pub use hf_core::{Aggregates, Claims, Report, Tsv};
    pub use hf_farm::{Collector, Dataset, FarmPlan, Snapshot, SnapshotError, TagDb};
    pub use hf_honeypot::{HoneypotConfig, SessionDriver, SessionRecord};
    pub use hf_sim::{FoldOutput, SimConfig, SimOutput, Simulation};
    pub use hf_simclock::StudyWindow;
    pub use hf_wire::{FarmConfig as WireFarmConfig, LiveFarm};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // Compile-time smoke test that the re-export surface is intact.
        let _ = crate::prelude::SimConfig::test(2);
        let _ = crate::farm::FarmPlan::paper();
        let _ = crate::hash::Sha256::digest(b"facade");
    }
}

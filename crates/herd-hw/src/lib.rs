//! # herd-hw — simulated hardware testbeds
//!
//! The paper validates its models against Power and ARM machines
//! (Sec 8.1). This crate substitutes configurable *silicon behaviour
//! models* for the physical hardware: each tested part is an
//! architecture describing what its silicon can produce — including the
//! acknowledged bugs (load-load hazards, early commit, isb defeat) — and
//! randomised campaigns reproduce the observation methodology: observed
//! final states with realistic rarity, compared against a reference
//! model to produce the *invalid*/*unseen* columns of Tab V, the anomaly
//! counts of Tab VI, and the axiom classification of Tab VIII.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod flaky;
pub mod log;
pub mod silicon;
pub mod silicon_tso;

pub use campaign::{
    campaign, campaign_flaky, campaign_with_workers, run_test, run_test_retry, CampaignSummary,
    LostTest, RetriedRun, RunOutcome, TestReport,
};
pub use flaky::{Flake, FlakyMachine};
pub use log::{
    compare, hardware_log, judge_entries, judge_log_cached, model_log, Comparison, Log,
    VerdictCache,
};
pub use silicon::{
    arm_machines, power_machines, x86_machines, ArmErrata, ArmSilicon, Machine, PowerSilicon,
};
pub use silicon_tso::TsoSilicon;

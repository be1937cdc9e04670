//! Ledger-as-dataset: harvest finished campaign runs into surrogate
//! training data.
//!
//! A campaign ledger is a record of real optimization trajectories —
//! every `Done` Laplace record names a seed whose control samples the
//! region the optimizers actually visited. Harvesting those seeds into a
//! [`SurrogateSpec`]'s `extra_seeds` enriches the surrogate's training
//! set exactly where amortized control will be asked to generalize,
//! without storing any control vectors in the ledger: the seed plus the
//! spec's sampling contract ([`surrogate::sample_control`]) reconstructs
//! each control bitwise.
//!
//! Fault tolerance rides along for free: the harvest reads whatever
//! [`Ledger::open`] recovered, so torn final lines are dropped by the
//! framing contract and a record that needed retries (`attempts > 1`)
//! still contributes its seed — the run finished, so the seed is good.
//!
//! [`Ledger::open`]: crate::ledger::Ledger::open

use crate::ledger::{LedgerRecord, RunStatus};
use control::api::{BuiltProblem, ControlError};
use control::surrogate::{self, SurrogateSpec, TrainingPair};

/// Seeds of every finished Laplace run, first-appearance order, deduped.
///
/// Only `Done` records qualify: a failed or timed-out run never produced
/// a trustworthy trajectory, and a diverged seed would teach the
/// surrogate about a region the optimizers abandoned.
pub fn harvest_seeds(records: &[LedgerRecord]) -> Vec<u64> {
    let mut seeds = Vec::new();
    for rec in records {
        if rec.status == RunStatus::Done && rec.problem == "laplace" && !seeds.contains(&rec.seed) {
            seeds.push(rec.seed);
        }
    }
    seeds
}

/// A copy of `base` whose `extra_seeds` also carry every harvested seed
/// not already present. The result's fingerprint differs from `base`'s
/// whenever the harvest added anything, so a harvested surrogate never
/// aliases an unharvested one in the [`BuiltProblem`] cache.
pub fn harvested_spec(base: &SurrogateSpec, records: &[LedgerRecord]) -> SurrogateSpec {
    let mut spec = base.clone();
    for seed in harvest_seeds(records) {
        if !spec.extra_seeds.contains(&seed) {
            spec.extra_seeds.push(seed);
        }
    }
    spec
}

/// Materializes the full training set `(c, u_flux, J)` a spec implies:
/// the probing controls (zero, unit directions, seeded random draws) plus
/// one reconstructed control per harvested seed, forward-solved in one
/// batch on the built problem. This is exactly the dataset
/// [`LaplaceSurrogate::train`] fits ([`surrogate::training_set`]) —
/// exposed so campaigns can inspect or export it.
///
/// [`LaplaceSurrogate::train`]: control::surrogate::LaplaceSurrogate::train
pub fn training_pairs(
    built: &BuiltProblem,
    spec: &SurrogateSpec,
    seed: u64,
) -> Result<Vec<TrainingPair>, ControlError> {
    let p = built
        .laplace()
        .ok_or_else(|| ControlError::BadConfig("ledger harvesting is Laplace-only".to_string()))?;
    surrogate::training_set(p, spec, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(spec_id: &str, status: RunStatus, problem: &str, seed: u64) -> LedgerRecord {
        LedgerRecord {
            spec_id: spec_id.to_string(),
            status,
            method: "DP".to_string(),
            problem: problem.to_string(),
            attempts: 1,
            seed,
            lr: 1e-2,
            iterations: 3,
            final_cost: Some(0.5),
            error: None,
            cost_history: vec![1.0, 0.5],
            iter_history: vec![0.0, 2.0],
        }
    }

    #[test]
    fn only_done_laplace_records_contribute_seeds() {
        let records = vec![
            record("a", RunStatus::Done, "laplace", 7),
            record("b", RunStatus::Failed, "laplace", 8),
            record("c", RunStatus::TimedOut, "laplace", 9),
            record("d", RunStatus::Done, "navier-stokes", 10),
            record("e", RunStatus::Done, "laplace", 11),
            record("f", RunStatus::Done, "laplace", 7), // duplicate seed
        ];
        assert_eq!(harvest_seeds(&records), vec![7, 11]);
    }

    #[test]
    fn harvesting_changes_the_fingerprint_only_when_it_adds_seeds() {
        let base = SurrogateSpec::default();
        let none = harvested_spec(&base, &[]);
        assert_eq!(none.fingerprint(0), base.fingerprint(0));
        let records = vec![record("a", RunStatus::Done, "laplace", 7)];
        let harvested = harvested_spec(&base, &records);
        assert_eq!(harvested.extra_seeds, vec![7]);
        assert_ne!(harvested.fingerprint(0), base.fingerprint(0));
        // Re-harvesting the same ledger is idempotent.
        let again = harvested_spec(&harvested, &records);
        assert_eq!(again.fingerprint(0), harvested.fingerprint(0));
    }
}

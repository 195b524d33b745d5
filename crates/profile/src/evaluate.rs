//! Open-loop evaluation: applying a static [`SpeculationSet`] to a trace.

use crate::profile::BranchProfile;
use crate::select::SpeculationSet;
use rsc_trace::{BranchRecord, Direction};

/// Outcome counts from running speculation over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecOutcome {
    /// Dynamic branches speculated in the correct direction.
    pub correct: u64,
    /// Dynamic branches speculated in the wrong direction.
    pub incorrect: u64,
    /// Total dynamic branch events observed.
    pub events: u64,
    /// Total dynamic instructions observed.
    pub instructions: u64,
}

impl SpecOutcome {
    /// Fraction of dynamic branches speculated correctly (Figure 2 y axis).
    pub fn correct_frac(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.correct as f64 / self.events as f64
        }
    }

    /// Fraction of dynamic branches misspeculated (Figure 2 x axis).
    pub fn incorrect_frac(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.incorrect as f64 / self.events as f64
        }
    }

    /// Average instructions between misspeculations (Table 3 "misspec
    /// dist."), or `None` if there were no misspeculations.
    pub fn misspec_distance(&self) -> Option<u64> {
        self.instructions.checked_div(self.incorrect)
    }

    /// Adds another outcome (used when aggregating across benchmarks).
    pub fn accumulate(&mut self, other: &SpecOutcome) {
        self.correct += other.correct;
        self.incorrect += other.incorrect;
        self.events += other.events;
        self.instructions += other.instructions;
    }
}

/// Evaluates a static speculation set over a trace: every execution of a
/// selected branch counts as correct or incorrect depending on whether the
/// outcome matches the speculated direction.
///
/// This models the paper's *open-loop* techniques, where a decision is made
/// once and never revisited.
///
/// # Examples
///
/// ```
/// use rsc_trace::{spec2000, InputId};
/// use rsc_profile::{evaluate, BranchProfile, SpeculationSet};
///
/// let pop = spec2000::benchmark("eon").unwrap().population(30_000);
/// let profile = BranchProfile::from_trace(pop.trace(InputId::Eval, 30_000, 1));
/// let set = SpeculationSet::from_profile(&profile, 0.99, 1);
/// // Self-training: evaluate on the same trace we profiled.
/// let out = evaluate::evaluate(&set, pop.trace(InputId::Eval, 30_000, 1));
/// assert!(out.correct_frac() > out.incorrect_frac());
/// ```
pub fn evaluate<I: IntoIterator<Item = BranchRecord>>(
    set: &SpeculationSet,
    trace: I,
) -> SpecOutcome {
    let mut out = SpecOutcome::default();
    for r in trace {
        out.events += 1;
        out.instructions = out.instructions.max(r.instr);
        if let Some(dir) = set.decision(r.branch) {
            if dir.matches(r.taken) {
                out.correct += 1;
            } else {
                out.incorrect += 1;
            }
        }
    }
    out
}

/// Evaluates a speculation set, but for each branch only counts executions
/// after its first `training_execs` (its training window).
///
/// This models initial-behavior training honestly: during a branch's
/// profiling window the unoptimized code runs, so those executions are
/// neither correct nor incorrect speculations.
pub fn evaluate_after_training<I: IntoIterator<Item = BranchRecord>>(
    set: &SpeculationSet,
    trace: I,
    training_execs: u64,
) -> SpecOutcome {
    let mut out = SpecOutcome::default();
    let mut execs: Vec<u64> = vec![0; set.len()];
    for r in trace {
        out.events += 1;
        out.instructions = out.instructions.max(r.instr);
        let idx = r.branch.index();
        if idx >= execs.len() {
            execs.resize(idx + 1, 0);
        }
        let e = execs[idx];
        execs[idx] += 1;
        if e < training_execs {
            continue;
        }
        if let Some(dir) = set.decision(r.branch) {
            if dir.matches(r.taken) {
                out.correct += 1;
            } else {
                out.incorrect += 1;
            }
        }
    }
    out
}

/// [`evaluate`] from profile counts instead of a second pass over the
/// trace.
///
/// The open-loop sum does not depend on event order: each selected branch
/// contributes its matching count as correct and the rest as incorrect,
/// and the event and instruction totals are the profile's. So when
/// `profile` is [`BranchProfile::from_trace`] of a trace, this equals
/// [`evaluate`] of `set` over that same trace, bit for bit.
///
/// # Examples
///
/// ```
/// use rsc_trace::{spec2000, InputId};
/// use rsc_profile::{evaluate, BranchProfile, SpeculationSet};
///
/// let pop = spec2000::benchmark("eon").unwrap().population(30_000);
/// let profile = BranchProfile::from_trace(pop.trace(InputId::Eval, 30_000, 1));
/// let set = SpeculationSet::from_profile(&profile, 0.99, 1);
/// assert_eq!(
///     evaluate::evaluate_profile(&set, &profile),
///     evaluate::evaluate(&set, pop.trace(InputId::Eval, 30_000, 1)),
/// );
/// ```
pub fn evaluate_profile(set: &SpeculationSet, profile: &BranchProfile) -> SpecOutcome {
    outcome_from_counts(set, profile, None)
}

/// [`evaluate_after_training`] from profile counts.
///
/// `evaluate_after_training(set, trace, n)` skips exactly the per-branch
/// first `n` executions that [`initial_profile`](crate::initial::initial_profile)
/// of the same trace records, so it is the open-loop sum over
/// `full − training` counts. When `full` is the whole-trace profile and
/// `training` its `n`-execution initial profile, this equals it bit for
/// bit.
///
/// # Panics
///
/// Panics if some count of `training` exceeds the one in `full`, i.e. it
/// is not a per-branch prefix of the same trace.
pub fn evaluate_profile_after_training(
    set: &SpeculationSet,
    full: &BranchProfile,
    training: &BranchProfile,
) -> SpecOutcome {
    outcome_from_counts(set, full, Some(training))
}

fn outcome_from_counts(
    set: &SpeculationSet,
    full: &BranchProfile,
    skipped: Option<&BranchProfile>,
) -> SpecOutcome {
    let mut out = SpecOutcome {
        events: full.events(),
        instructions: full.instructions(),
        ..SpecOutcome::default()
    };
    for (branch, dir) in set.iter() {
        let i = branch.index();
        let (mut taken, mut not_taken) = (full.taken(i), full.not_taken(i));
        if let Some(skip) = skipped {
            let prefix = "training counts must be a prefix of the full profile";
            taken = taken.checked_sub(skip.taken(i)).expect(prefix);
            not_taken = not_taken.checked_sub(skip.not_taken(i)).expect(prefix);
        }
        let (hit, miss) = match dir {
            Direction::Taken => (taken, not_taken),
            Direction::NotTaken => (not_taken, taken),
        };
        out.correct += hit;
        out.incorrect += miss;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_trace::{BranchId, Direction};

    fn rec(b: u32, taken: bool, instr: u64) -> BranchRecord {
        BranchRecord {
            branch: BranchId::new(b),
            taken,
            instr,
        }
    }

    #[test]
    fn counts_correct_and_incorrect() {
        let mut set = SpeculationSet::new();
        set.set(BranchId::new(0), Some(Direction::Taken));
        let out = evaluate(
            &set,
            vec![rec(0, true, 10), rec(0, false, 20), rec(1, true, 30)],
        );
        assert_eq!(out.correct, 1);
        assert_eq!(out.incorrect, 1);
        assert_eq!(out.events, 3);
        assert_eq!(out.instructions, 30);
    }

    #[test]
    fn unselected_branches_are_neutral() {
        let set = SpeculationSet::new();
        let out = evaluate(&set, vec![rec(0, true, 1), rec(0, false, 2)]);
        assert_eq!(out.correct + out.incorrect, 0);
        assert_eq!(out.events, 2);
    }

    #[test]
    fn fractions_and_distance() {
        let mut set = SpeculationSet::new();
        set.set(BranchId::new(0), Some(Direction::NotTaken));
        let out = evaluate(&set, (0..10).map(|i| rec(0, i == 0, (i + 1) * 100)));
        assert!((out.correct_frac() - 0.9).abs() < 1e-12);
        assert!((out.incorrect_frac() - 0.1).abs() < 1e-12);
        assert_eq!(out.misspec_distance(), Some(1000));
    }

    #[test]
    fn no_misspecs_means_no_distance() {
        let out = SpecOutcome {
            correct: 5,
            incorrect: 0,
            events: 5,
            instructions: 100,
        };
        assert_eq!(out.misspec_distance(), None);
    }

    #[test]
    fn empty_trace_fractions_are_zero() {
        let out = SpecOutcome::default();
        assert_eq!(out.correct_frac(), 0.0);
        assert_eq!(out.incorrect_frac(), 0.0);
    }

    #[test]
    fn training_window_is_excluded() {
        let mut set = SpeculationSet::new();
        set.set(BranchId::new(0), Some(Direction::Taken));
        // 5 executions; first 3 are training.
        let out = evaluate_after_training(&set, (0..5).map(|i| rec(0, true, i + 1)), 3);
        assert_eq!(out.correct, 2);
        assert_eq!(out.events, 5);
    }

    #[test]
    fn training_applies_per_branch() {
        let mut set = SpeculationSet::new();
        set.set(BranchId::new(0), Some(Direction::Taken));
        set.set(BranchId::new(1), Some(Direction::Taken));
        let trace = vec![
            rec(0, true, 1),
            rec(1, true, 2),
            rec(0, true, 3),
            rec(1, true, 4),
        ];
        let out = evaluate_after_training(&set, trace, 1);
        assert_eq!(out.correct, 2, "each branch skips exactly one execution");
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = SpecOutcome {
            correct: 1,
            incorrect: 2,
            events: 3,
            instructions: 4,
        };
        a.accumulate(&SpecOutcome {
            correct: 10,
            incorrect: 20,
            events: 30,
            instructions: 40,
        });
        assert_eq!(
            a,
            SpecOutcome {
                correct: 11,
                incorrect: 22,
                events: 33,
                instructions: 44
            }
        );
    }
}

//! Cross-input profiling experiments (the paper's Figure 2 triangles).
//!
//! "Profiling from a previous run": build a profile on the training input,
//! select biased branches, evaluate on the evaluation input. The paper
//! shows this loses ~3× benefit and gains ~10× misspeculation compared to
//! self-training, because some predicates are input-dependent and some code
//! is exercised by only one input.

use crate::evaluate::{evaluate_profile, SpecOutcome};
use crate::profile::BranchProfile;
use crate::select::SpeculationSet;
use rsc_trace::{InputId, Population};

/// Result of one cross-input experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossInputResult {
    /// Outcome when profiling and evaluating on the evaluation input
    /// (self-training reference).
    pub self_trained: SpecOutcome,
    /// Outcome when profiling on the profile input and evaluating on the
    /// evaluation input.
    pub cross_trained: SpecOutcome,
}

impl CrossInputResult {
    /// Ratio of self-trained to cross-trained correct speculation (the
    /// paper reports ~3× average benefit loss).
    pub fn benefit_loss_factor(&self) -> f64 {
        let cross = self.cross_trained.correct_frac();
        if cross == 0.0 {
            f64::INFINITY
        } else {
            self.self_trained.correct_frac() / cross
        }
    }

    /// Ratio of cross-trained to self-trained misspeculation (the paper
    /// reports ~10× average increase).
    pub fn misspec_gain_factor(&self) -> f64 {
        let own = self.self_trained.incorrect_frac();
        if own == 0.0 {
            f64::INFINITY
        } else {
            self.cross_trained.incorrect_frac() / own
        }
    }
}

/// Runs the paper's cross-input comparison on one benchmark population.
///
/// Both runs use `events` events; `threshold` is the selection bias
/// threshold (the paper uses 99%); `min_execs` filters branches with too
/// few profiled executions to classify.
///
/// Each input's trace is generated once: both evaluations are derived from
/// the evaluation input's profile counts
/// ([`evaluate_profile`]), which is bit-identical to re-running
/// [`evaluate`](crate::evaluate::evaluate) over the trace.
pub fn cross_input_experiment(
    population: &Population,
    events: u64,
    seed: u64,
    threshold: f64,
    min_execs: u64,
) -> CrossInputResult {
    let eval_profile =
        BranchProfile::from_trace_chunked(&mut population.trace(InputId::Eval, events, seed));
    cross_input_from_eval_profile(
        &eval_profile,
        population,
        events,
        seed,
        threshold,
        min_execs,
    )
}

/// [`cross_input_experiment`] for a caller that already holds the
/// evaluation input's whole-run profile (`InputId::Eval` at `events` and
/// `seed`): only the profile input's trace is generated.
pub fn cross_input_from_eval_profile(
    eval_profile: &BranchProfile,
    population: &Population,
    events: u64,
    seed: u64,
    threshold: f64,
    min_execs: u64,
) -> CrossInputResult {
    let train_profile = BranchProfile::from_trace_chunked(&mut population.trace(
        InputId::Profile,
        events,
        seed + 1,
    ));

    let self_set = SpeculationSet::from_profile(eval_profile, threshold, min_execs);
    let cross_set = SpeculationSet::from_profile(&train_profile, threshold, min_execs);

    CrossInputResult {
        self_trained: evaluate_profile(&self_set, eval_profile),
        cross_trained: evaluate_profile(&cross_set, eval_profile),
    }
}

/// Averages `k` profiles of the profile input (different trace seeds) into
/// one, modeling the "average together a number of profiles" mitigation the
/// paper mentions: misspeculation drops, but input-dependent branches drop
/// out of the speculation set, reducing opportunity.
///
/// The `k` shards are independent traces, so they are accumulated on up to
/// [`rsc_util::parallel::max_threads`] worker threads (each through the
/// chunked hot path) and merged in seed order. Because
/// [`BranchProfile::merge`] only adds counts and takes maxima, the result
/// is bit-identical to the sequential accumulation regardless of thread
/// count.
pub fn averaged_profile(
    population: &Population,
    events: u64,
    base_seed: u64,
    k: u32,
) -> BranchProfile {
    assert!(k > 0, "need at least one profile");
    let seeds: Vec<u64> = (0..k).map(|i| base_seed + u64::from(i)).collect();
    let shards = rsc_util::parallel::par_map(seeds, |seed| {
        BranchProfile::from_trace_chunked(&mut population.trace(InputId::Profile, events, seed))
    });
    let mut merged = BranchProfile::new();
    for p in &shards {
        merged.merge(p);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_trace::spec2000;

    #[test]
    fn cross_input_degrades_on_input_dependent_benchmark() {
        // crafty has strong input dependence in our models, as in the paper.
        let pop = spec2000::benchmark("crafty").unwrap().population(60_000);
        let r = cross_input_experiment(&pop, 60_000, 7, 0.99, 16);
        assert!(
            r.cross_trained.incorrect_frac() > r.self_trained.incorrect_frac(),
            "cross-input profiling should misspeculate more: {:?}",
            r
        );
        assert!(
            r.cross_trained.correct_frac() < r.self_trained.correct_frac(),
            "cross-input profiling should find less benefit: {:?}",
            r
        );
    }

    #[test]
    fn matches_streaming_reference() {
        // The streaming composition: four trace generations, each
        // evaluation replaying the evaluation trace.
        fn reference(pop: &Population, events: u64, seed: u64) -> CrossInputResult {
            let eval = || pop.trace(InputId::Eval, events, seed);
            let eval_profile = BranchProfile::from_trace(eval());
            let train_profile =
                BranchProfile::from_trace(pop.trace(InputId::Profile, events, seed + 1));
            let self_set = SpeculationSet::from_profile(&eval_profile, 0.99, 32);
            let cross_set = SpeculationSet::from_profile(&train_profile, 0.99, 32);
            CrossInputResult {
                self_trained: crate::evaluate::evaluate(&self_set, eval()),
                cross_trained: crate::evaluate::evaluate(&cross_set, eval()),
            }
        }
        for name in ["crafty", "gcc", "mcf"] {
            let pop = spec2000::benchmark(name).unwrap().population(30_000);
            for (events, seed) in [(0, 1), (500, 2), (30_000, 3)] {
                assert_eq!(
                    cross_input_experiment(&pop, events, seed, 0.99, 32),
                    reference(&pop, events, seed),
                    "{name} events {events} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn factors_are_consistent_with_outcomes() {
        let pop = spec2000::benchmark("parser").unwrap().population(40_000);
        let r = cross_input_experiment(&pop, 40_000, 3, 0.99, 16);
        assert!(r.benefit_loss_factor() >= 1.0);
        assert!(r.misspec_gain_factor() >= 1.0);
    }

    #[test]
    fn averaged_profile_accumulates_events() {
        let pop = spec2000::benchmark("gzip").unwrap().population(10_000);
        let p = averaged_profile(&pop, 10_000, 1, 3);
        assert_eq!(p.events(), 30_000);
    }

    #[test]
    fn sharded_averaging_matches_sequential_reference() {
        let pop = spec2000::benchmark("vortex").unwrap().population(20_000);
        let reference = {
            let mut merged = BranchProfile::new();
            for i in 0..4u64 {
                merged.merge(&BranchProfile::from_trace(pop.trace(
                    InputId::Profile,
                    20_000,
                    9 + i,
                )));
            }
            merged
        };
        let parallel = averaged_profile(&pop, 20_000, 9, 4);
        assert_eq!(parallel, reference);

        // And independent of the thread cap.
        rsc_util::parallel::set_max_threads(1);
        let capped = averaged_profile(&pop, 20_000, 9, 4);
        rsc_util::parallel::set_max_threads(0);
        assert_eq!(capped, reference);
    }

    #[test]
    #[should_panic(expected = "at least one profile")]
    fn zero_profiles_panics() {
        let pop = spec2000::benchmark("gzip").unwrap().population(1_000);
        averaged_profile(&pop, 1_000, 1, 0);
    }
}

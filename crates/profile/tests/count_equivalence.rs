//! Bit-identity of the profile-count paths against the streaming
//! functions they replace: `evaluate_profile` against `evaluate`,
//! `evaluate_profile_after_training` against `evaluate_after_training`,
//! and the single-pass `profile_with_initial` against `from_trace` plus
//! `initial_profile` per length.

use rsc_profile::{evaluate, initial, BranchProfile, SpeculationSet};
use rsc_trace::{spec2000, BranchId, Direction, InputId, Population};

const MODELS: [&str; 4] = ["gcc", "mcf", "crafty", "vortex"];
const SEEDS: [u64; 2] = [1, 7];
const EVENTS: [u64; 3] = [0, 700, 40_000];
/// Training lengths: none, tiny, fig2's scaled range, and longer than any
/// branch runs at these scales.
const LENGTHS: [u64; 6] = [0, 1, 50, 1_000, 5_000, 1 << 40];

fn cases() -> impl Iterator<Item = (&'static str, Population, u64, u64)> {
    MODELS.into_iter().flat_map(|name| {
        let pop = spec2000::benchmark(name).unwrap().population(40_000);
        SEEDS.into_iter().flat_map(move |seed| {
            let pop = pop.clone();
            EVENTS
                .into_iter()
                .map(move |events| (name, pop.clone(), events, seed))
        })
    })
}

/// Sets selected from `profile`, plus one that also names branches past the
/// end of every profile.
fn sets(profile: &BranchProfile) -> Vec<SpeculationSet> {
    let mut long = SpeculationSet::from_profile(profile, 0.9, 1);
    long.set(
        BranchId::new(profile.len() as u32 + 17),
        Some(Direction::Taken),
    );
    long.set(
        BranchId::new(profile.len() as u32 + 40),
        Some(Direction::NotTaken),
    );
    vec![
        SpeculationSet::new(),
        SpeculationSet::from_profile(profile, 0.99, 32),
        SpeculationSet::from_profile(profile, 0.6, 1),
        long,
    ]
}

#[test]
fn profile_evaluation_matches_streaming_evaluate() {
    for (name, pop, events, seed) in cases() {
        let trace = || pop.trace(InputId::Eval, events, seed);
        let profile = BranchProfile::from_trace(trace());
        let train = BranchProfile::from_trace(pop.trace(InputId::Profile, events, seed + 1));
        for set in sets(&profile).iter().chain(&sets(&train)) {
            assert_eq!(
                evaluate::evaluate_profile(set, &profile),
                evaluate::evaluate(set, trace()),
                "{name} events {events} seed {seed}"
            );
        }
    }
}

#[test]
fn full_minus_initial_matches_evaluate_after_training() {
    for (name, pop, events, seed) in cases() {
        let trace = || pop.trace(InputId::Eval, events, seed);
        let full = BranchProfile::from_trace(trace());
        for n in LENGTHS {
            let training = initial::initial_profile(trace(), n);
            let trained = SpeculationSet::from_profile(&training, 0.99, n.min(100));
            for set in sets(&full).iter().chain([&trained]) {
                assert_eq!(
                    evaluate::evaluate_profile_after_training(set, &full, &training),
                    evaluate::evaluate_after_training(set, trace(), n),
                    "{name} events {events} seed {seed} n {n}"
                );
            }
        }
    }
}

#[test]
fn single_pass_profiles_match_per_length_profiles() {
    for (name, pop, events, seed) in cases() {
        let trace = || pop.trace(InputId::Eval, events, seed);
        // Unsorted, with a duplicate, to show lengths are independent.
        let lengths = [1_000, 0, 50, 1 << 40, 1, 50, 5_000];
        let (full, init) = initial::profile_with_initial(&mut trace(), &lengths);
        assert_eq!(
            full,
            BranchProfile::from_trace(trace()),
            "{name} {events} {seed}"
        );
        assert_eq!(init.len(), lengths.len());
        for (p, &n) in init.iter().zip(&lengths) {
            assert_eq!(
                *p,
                initial::initial_profile(trace(), n),
                "{name} events {events} seed {seed} n {n}"
            );
        }
    }
}

#[test]
fn single_pass_with_no_lengths_is_the_full_profile() {
    let pop = spec2000::benchmark("gzip").unwrap().population(10_000);
    let (full, init) = initial::profile_with_initial(&mut pop.trace(InputId::Eval, 10_000, 3), &[]);
    assert!(init.is_empty());
    assert_eq!(
        full,
        BranchProfile::from_trace(pop.trace(InputId::Eval, 10_000, 3))
    );
}

#[test]
fn empty_trace_gives_empty_outcomes() {
    let pop = spec2000::benchmark("gzip").unwrap().population(10_000);
    let (full, init) = initial::profile_with_initial(&mut pop.trace(InputId::Eval, 0, 1), &[0, 10]);
    assert!(full.is_empty());
    assert!(init.iter().all(|p| *p == BranchProfile::new()));
    let mut set = SpeculationSet::new();
    set.set(BranchId::new(3), Some(Direction::Taken));
    let out = evaluate::evaluate_profile_after_training(&set, &full, &init[1]);
    assert_eq!(out, evaluate::SpecOutcome::default());
}

#[test]
#[should_panic(expected = "prefix of the full profile")]
fn training_counts_beyond_the_full_profile_panic() {
    let pop = spec2000::benchmark("gzip").unwrap().population(10_000);
    let small = BranchProfile::from_trace(pop.trace(InputId::Eval, 100, 1));
    let big = BranchProfile::from_trace(pop.trace(InputId::Eval, 10_000, 1));
    let set = SpeculationSet::from_profile(&big, 0.6, 1);
    evaluate::evaluate_profile_after_training(&set, &small, &big);
}

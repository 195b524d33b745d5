//! Figure 2 — the correct/incorrect speculation trade-off:
//!
//! * the self-training Pareto curve (one line per benchmark),
//! * the 99%-threshold knee (●),
//! * the cross-input profile point (△),
//! * initial-behavior points for 5 training lengths (+).

use crate::options::ExpOptions;
use crate::table::{pct, TextTable};
use rsc_profile::{evaluate, initial, offline, pareto, SpeculationSet};
use rsc_trace::{spec2000, InputId};

/// All Figure 2 marks for one benchmark.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Sampled points of the self-training Pareto curve
    /// `(incorrect, correct)`, thinned for display.
    pub curve: Vec<(f64, f64)>,
    /// Self-training 99%-threshold point (the ● marker).
    pub knee: (f64, f64),
    /// Cross-input profile-guided point (the △ marker).
    pub cross_input: (f64, f64),
    /// Initial-behavior points, one per training length (the + markers):
    /// `(training length, incorrect, correct)`.
    pub initial: Vec<(u64, f64, f64)>,
}

/// Training lengths used for the + markers, scaled from the paper's
/// 1k–1M executions proportionally to the run-length scaling.
pub fn training_lengths(events: u64) -> Vec<u64> {
    // The paper's lengths assume branches that execute many millions of
    // times; at this scale hot branches execute thousands to a couple of
    // million times, so the per-branch training lengths are scaled by ~100x,
    // clamped to sane bounds. Below 400 events the `events / 8` cap wins
    // over the 50-execution floor.
    initial::PAPER_TRAINING_LENGTHS
        .iter()
        .map(|&n| (n / 100).max(50).min(events / 8))
        .collect()
}

/// Runs the Figure 2 experiment for all benchmarks.
///
/// Each input's trace is generated once per benchmark: one pass over the
/// evaluation input yields the whole-run profile and every
/// initial-behavior profile, one pass over the profile input yields the
/// cross-input profile, and every open-loop evaluation is summed from
/// those counts (bit-identical to replaying the trace; see DESIGN.md).
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    crate::parallel::par_map(spec2000::all(), |model| {
        let pop = model.population(opts.events);
        let lengths = training_lengths(opts.events);
        let (eval_profile, initial_profiles) = initial::profile_with_initial(
            &mut pop.trace(InputId::Eval, opts.events, opts.seed),
            &lengths,
        );

        // Self-training curve and knee.
        let full_curve = pareto::curve(&eval_profile);
        let stride = (full_curve.len() / 16).max(1);
        let curve: Vec<(f64, f64)> = full_curve
            .iter()
            .step_by(stride)
            .map(|p| (p.incorrect, p.correct))
            .collect();
        let knee_pt = pareto::threshold_point(&eval_profile, 0.99);

        // Cross-input profile (the paper's Table 1 pairings).
        let cross = offline::cross_input_from_eval_profile(
            &eval_profile,
            &pop,
            opts.events,
            opts.seed,
            0.99,
            32,
        );
        let cross_input = (
            cross.cross_trained.incorrect_frac(),
            cross.cross_trained.correct_frac(),
        );

        // Initial-behavior training at several lengths.
        let initial_pts = lengths
            .iter()
            .zip(&initial_profiles)
            .map(|(&n, p)| {
                let set = SpeculationSet::from_profile(p, 0.99, n.min(100));
                let out = evaluate::evaluate_profile_after_training(&set, &eval_profile, p);
                (n, out.incorrect_frac(), out.correct_frac())
            })
            .collect();

        Row {
            name: model.name,
            curve,
            knee: (knee_pt.incorrect, knee_pt.correct),
            cross_input,
            initial: initial_pts,
        }
    })
}

/// Renders the Figure 2 marks (curve summarized by its endpoint).
pub fn render(rows: &[Row]) -> String {
    let mut t = TextTable::new(vec!["bmark", "mark", "incorrect", "correct"]);
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            "self-train knee (99%) ●".to_string(),
            pct(r.knee.0, 3),
            pct(r.knee.1, 1),
        ]);
        t.row(vec![
            String::new(),
            "cross-input profile △".to_string(),
            pct(r.cross_input.0, 3),
            pct(r.cross_input.1, 1),
        ]);
        for (n, inc, cor) in &r.initial {
            t.row(vec![
                String::new(),
                format!("initial behavior + ({n} execs)"),
                pct(*inc, 3),
                pct(*cor, 1),
            ]);
        }
    }
    t.render()
}

/// Aggregate degradation factors across benchmarks (the paper's summary:
/// cross-input loses ~3× benefit and gains ~10× misspeculation).
pub fn cross_input_summary(rows: &[Row]) -> (f64, f64) {
    let mut benefit_loss = 0.0;
    let mut misspec_gain = 0.0;
    let mut n = 0.0;
    for r in rows {
        if r.cross_input.1 > 0.0 && r.knee.0 > 0.0 {
            benefit_loss += r.knee.1 / r.cross_input.1;
            misspec_gain += r.cross_input.0 / r.knee.0.max(1e-9);
            n += 1.0;
        }
    }
    if n == 0.0 {
        (0.0, 0.0)
    } else {
        (benefit_loss / n, misspec_gain / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_lengths_scale_and_clamp() {
        assert_eq!(
            training_lengths(16_000_000),
            vec![50, 100, 1_000, 3_000, 10_000]
        );
        assert_eq!(
            training_lengths(3_000_000),
            vec![50, 100, 1_000, 3_000, 10_000]
        );
        // The 50-execution floor holds from 400 events up; below it the
        // `events / 8` cap wins.
        assert_eq!(training_lengths(400), vec![50; 5]);
        assert_eq!(training_lengths(399), vec![49; 5]);
        assert_eq!(training_lengths(100), vec![12; 5]);
        assert_eq!(training_lengths(0), vec![0; 5]);
    }

    /// Figure 2 through the streaming functions, every evaluation replaying
    /// the trace: the evaluation trace is regenerated for the self-training
    /// profile, for the cross-input profile and evaluation, and twice per
    /// training length. (The cross-input experiment also regenerated it for
    /// its own copy of the profile and for a self-trained evaluation no row
    /// field uses; those are left out.)
    fn streaming_reference(opts: &ExpOptions) -> Vec<Row> {
        use rsc_profile::BranchProfile;
        spec2000::all()
            .into_iter()
            .map(|model| {
                let pop = model.population(opts.events);
                let eval = || pop.trace(InputId::Eval, opts.events, opts.seed);
                let eval_profile = BranchProfile::from_trace(eval());
                let full_curve = pareto::curve(&eval_profile);
                let stride = (full_curve.len() / 16).max(1);
                let curve = full_curve
                    .iter()
                    .step_by(stride)
                    .map(|p| (p.incorrect, p.correct))
                    .collect();
                let knee_pt = pareto::threshold_point(&eval_profile, 0.99);
                let train_profile = BranchProfile::from_trace(pop.trace(
                    InputId::Profile,
                    opts.events,
                    opts.seed + 1,
                ));
                let cross_set = SpeculationSet::from_profile(&train_profile, 0.99, 32);
                let cross = evaluate::evaluate(&cross_set, eval());
                let initial = training_lengths(opts.events)
                    .into_iter()
                    .map(|n| {
                        let p = initial::initial_profile(eval(), n);
                        let set = SpeculationSet::from_profile(&p, 0.99, n.min(100));
                        let out = evaluate::evaluate_after_training(&set, eval(), n);
                        (n, out.incorrect_frac(), out.correct_frac())
                    })
                    .collect();
                Row {
                    name: model.name,
                    curve,
                    knee: (knee_pt.incorrect, knee_pt.correct),
                    cross_input: (cross.incorrect_frac(), cross.correct_frac()),
                    initial,
                }
            })
            .collect()
    }

    /// Every field of a row, floats by bit pattern.
    fn row_bits(r: &Row) -> (&'static str, Vec<u64>) {
        let mut bits = Vec::new();
        for &(x, y) in r.curve.iter().chain([&r.knee, &r.cross_input]) {
            bits.extend([x.to_bits(), y.to_bits()]);
        }
        bits.push(r.curve.len() as u64);
        for &(n, x, y) in &r.initial {
            bits.extend([n, x.to_bits(), y.to_bits()]);
        }
        (r.name, bits)
    }

    #[test]
    fn two_pass_run_matches_streaming_reference() {
        for seed in [1, 2, 3] {
            for events in [300, 24_000] {
                let opts = ExpOptions::small().with_events(events).with_seed(seed);
                let fast: Vec<_> = run(&opts).iter().map(row_bits).collect();
                let slow: Vec<_> = streaming_reference(&opts).iter().map(row_bits).collect();
                assert_eq!(fast.len(), 12);
                assert_eq!(fast, slow, "seed {seed} events {events}");
            }
        }
    }

    #[test]
    fn knee_dominates_cross_input() {
        let rows = run(&ExpOptions::small().with_events(400_000));
        // On average the cross-input point must be strictly worse.
        let (benefit_loss, misspec_gain) = cross_input_summary(&rows);
        assert!(benefit_loss > 1.2, "benefit loss factor {benefit_loss}");
        assert!(misspec_gain > 1.5, "misspec gain factor {misspec_gain}");
    }

    #[test]
    fn curve_points_are_monotone() {
        let rows = run(&ExpOptions::small().with_events(200_000));
        for r in &rows {
            for w in r.curve.windows(2) {
                assert!(w[1].0 >= w[0].0, "{}", r.name);
                assert!(w[1].1 >= w[0].1, "{}", r.name);
            }
        }
    }

    #[test]
    fn render_mentions_all_marks() {
        let rows = run(&ExpOptions::small().with_events(200_000));
        let s = render(&rows);
        assert!(s.contains("●"));
        assert!(s.contains("△"));
        assert!(s.contains("initial behavior"));
    }
}

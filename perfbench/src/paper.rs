//! The paper workloads: `fig2` then `table4` (paper-model), `fig7` then
//! `fig8` (paper-mssp), called exactly as `repro` dispatches them, plus
//! the digest of their rows and the checks on them: oracles that
//! recompute one seed-sampled part of each experiment another way, and
//! row digests pinned in `perfbench/pinned.txt`.

use crate::stats::Digest;
use rsc_bench::experiments::{fig2, fig7, fig8, table4};
use rsc_bench::options::ExpOptions;
use rsc_control::{ControllerParams, ReferenceController};
use rsc_mssp::{machine, ExecMode, MsspParams};
use rsc_trace::rng::Xoshiro256;
use rsc_trace::{spec2000, BranchRecord, InputId};
use std::time::Instant;

/// Which paper workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paper {
    /// `fig2` then `table4`.
    Model,
    /// `fig7` then `fig8`.
    Mssp,
}

/// Events per model for paper-model: the smallest round count at which
/// hot branches of every one of the 12 models pass the 25k-execution
/// revisit period of `ControllerParams::scaled()`, so the eviction and
/// revisit arcs fire (at 2M only half the models revisit).
pub const MODEL_EVENTS: u64 = 3_000_000;

/// Events option for paper-mssp. `fig7::mssp_events` turns it into
/// 250k simulated branch events per model, its floor.
pub const MSSP_EVENTS: u64 = 2_000_000;

/// The probe: a small input every checked pass also runs through the
/// same experiment functions, at a fixed seed, and compares with its
/// pinned digest, whatever the run's own seed.
const PROBE_SEED: u64 = 0;
/// Models of the probe's `table4`, `fig7` and `fig8` calls.
const PROBE_MODELS: [&str; 2] = ["gcc", "mcf"];
/// Events of the probe's `fig2` call, which runs all 12 models.
const PROBE_FIG2_EVENTS: u64 = 300_000;

/// Row digests pinned from passes of the code the benchmark was defined
/// on: `<workload> <seed|probe> <digest>` per line.
const PINNED: &str = include_str!("../pinned.txt");

/// The pinned row digest of `workload` at `seed` (`"probe"` for the
/// probe), if there is one.
pub fn pinned(workload: &str, seed: &str) -> Option<u64> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut w = l.split_whitespace();
            if w.next()? != workload || w.next()? != seed {
                return None;
            }
            u64::from_str_radix(w.next()?, 16).ok()
        })
}

impl Paper {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Paper::Model => "paper-model",
            Paper::Mssp => "paper-mssp",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Paper> {
        match name {
            "paper-model" => Some(Paper::Model),
            "paper-mssp" => Some(Paper::Mssp),
            _ => None,
        }
    }

    /// The experiment options the workload runs with.
    pub fn opts(self, seed: u64) -> ExpOptions {
        let events = match self {
            Paper::Model => MODEL_EVENTS,
            Paper::Mssp => MSSP_EVENTS,
        };
        ExpOptions::new().with_events(events).with_seed(seed)
    }

    /// (model, config) runs one pass performs.
    pub fn ops_per_pass(self) -> u64 {
        let models = spec2000::NAMES.len() as u64;
        match self {
            Paper::Model => models + models * table4::CONFIG_NAMES.len() as u64,
            Paper::Mssp => models * 4 + models * fig8::LATENCIES.len() as u64,
        }
    }
}

/// The rows of one pass.
pub enum Rows {
    /// fig2 and table4 rows.
    Model(Vec<fig2::Row>, Vec<table4::Row>),
    /// fig7 and fig8 rows.
    Mssp(Vec<fig7::Row>, Vec<fig8::Row>),
}

/// Runs one timed pass: both experiment calls, each timed on its own.
/// Returns the rows and the two wall times in seconds.
pub fn run_pass(kind: Paper, opts: &ExpOptions) -> (Rows, f64, f64) {
    let t = Instant::now();
    match kind {
        Paper::Model => {
            let a = fig2::run(opts);
            let s1 = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let b = table4::run(opts);
            (Rows::Model(a, b), s1, t.elapsed().as_secs_f64())
        }
        Paper::Mssp => {
            let a = fig7::run(opts);
            let s1 = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let b = fig8::run(opts);
            (Rows::Mssp(a, b), s1, t.elapsed().as_secs_f64())
        }
    }
}

/// Runs the probe: the workload's experiment calls on the probe input.
pub fn probe(kind: Paper) -> Rows {
    let opts = kind.opts(PROBE_SEED);
    match kind {
        Paper::Model => Rows::Model(
            fig2::run(
                &ExpOptions::new()
                    .with_events(PROBE_FIG2_EVENTS)
                    .with_seed(PROBE_SEED),
            ),
            table4::run_subset(&opts, &PROBE_MODELS),
        ),
        Paper::Mssp => Rows::Mssp(
            fig7::run_subset(&opts, &PROBE_MODELS),
            fig8::run_subset(&opts, &PROBE_MODELS),
        ),
    }
}

/// Digest of every row field, floats by bit pattern.
pub fn digest(rows: &Rows) -> u64 {
    let mut d = Digest::default();
    match rows {
        Rows::Model(f2, t4) => {
            for r in f2 {
                d.text(r.name);
                for &(x, y) in r.curve.iter().chain([&r.knee, &r.cross_input]) {
                    d.float(x);
                    d.float(y);
                }
                for &(n, x, y) in &r.initial {
                    d.word(n);
                    d.float(x);
                    d.float(y);
                }
            }
            for r in t4 {
                d.text(r.name);
                d.float(r.correct);
                d.float(r.incorrect);
            }
        }
        Rows::Mssp(f7, f8) => {
            for r in f7 {
                d.text(r.name);
                for x in [r.closed, r.open, r.closed_long, r.open_long] {
                    d.float(x);
                }
            }
            for r in f8 {
                d.text(r.name);
                for x in r.perf {
                    d.float(x);
                }
            }
        }
    }
    d.value()
}

/// One oracle comparison.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was compared.
    pub what: String,
    /// Whether the experiment's value matched the oracle exactly.
    pub ok: bool,
}

/// The checks' outcome plus a digest of the simulated counts the
/// oracles produced (controller stats, MSSP cycles and tasks).
pub struct CheckReport {
    /// Every comparison made.
    pub checks: Vec<Check>,
    /// Digest of the oracle's simulated counts.
    pub counts_digest: u64,
}

/// RNG stream for sampling what to check, apart from every trace stream.
const CHECK_STREAM: u64 = 0xC4EC;

fn pick(rng: &mut Xoshiro256, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// fig2's knee (`pareto::threshold_point` at 0.99 on the whole-run
/// profile), recomputed from per-branch counts without `BranchProfile`:
/// `(incorrect, correct)` as shares of all events.
fn counted_knee(records: impl Iterator<Item = BranchRecord>) -> (f64, f64) {
    let mut counts: Vec<(u64, u64)> = Vec::new(); // (taken, executions)
    let mut total = 0u64;
    for r in records {
        let i = r.branch.index();
        if i >= counts.len() {
            counts.resize(i + 1, (0, 0));
        }
        counts[i].0 += u64::from(r.taken);
        counts[i].1 += 1;
        total += 1;
    }
    let (mut correct, mut incorrect) = (0u64, 0u64);
    for &(t, n) in counts.iter().filter(|c| c.1 > 0) {
        let c = t.max(n - t);
        if c as f64 / n as f64 >= 0.99 {
            correct += c;
            incorrect += n - c;
        }
    }
    let total = total.max(1) as f64;
    (incorrect as f64 / total, correct as f64 / total)
}

/// Compares a rows digest with its pinned value; no pinned value fails.
fn pinned_check(kind: Paper, seed: &str, digest: u64) -> Check {
    let want = pinned(kind.name(), seed);
    Check {
        what: format!(
            "{} rows digest at seed {seed}: {digest:016x}, pinned {}",
            kind.name(),
            want.map_or("none".to_string(), |w| format!("{w:016x}"))
        ),
        ok: want == Some(digest),
    }
}

/// Checks a pass's rows: one seed-sampled part of each experiment
/// recomputed by an oracle and compared bit for bit; the rows digest
/// against `pinned.txt` when the seed is pinned; and the probe's rows
/// against their pinned digest, which must exist.
pub fn check(kind: Paper, rows: &Rows, opts: &ExpOptions) -> CheckReport {
    let mut checks = vec![pinned_check(kind, "probe", digest(&probe(kind)))];
    let seed = opts.seed.to_string();
    if pinned(kind.name(), &seed).is_some() {
        checks.push(pinned_check(kind, &seed, digest(rows)));
    }
    let mut rng = Xoshiro256::seed_from(opts.seed).fork(CHECK_STREAM);
    let models = spec2000::all();
    let mut counts = Digest::default();
    match rows {
        Rows::Model(f2, t4) => {
            // fig2's knee, counted straight from the trace.
            let m = pick(&mut rng, models.len());
            let model = &models[m];
            let pop = model.population(opts.events);
            let (incorrect, correct) =
                counted_knee(pop.trace(InputId::Eval, opts.events, opts.seed));
            let row = &f2[m];
            checks.push(Check {
                what: format!("fig2 knee of {} against direct counts", model.name),
                ok: row.name == model.name
                    && same(row.knee.0, incorrect)
                    && same(row.knee.1, correct),
            });

            // table4: one configuration through the reference FSM on
            // every model, averaged as the experiment averages.
            let c = pick(&mut rng, table4::CONFIG_NAMES.len());
            let name = table4::CONFIG_NAMES[c];
            let params = table4::config(ControllerParams::scaled(), name);
            let runs = rsc_util::par_map(models.clone(), |model| {
                let pop = model.population(opts.events);
                let mut reference = ReferenceController::new(params).expect("valid params");
                for r in pop.trace(InputId::Eval, opts.events, opts.seed) {
                    reference.observe(&r);
                }
                reference.stats()
            });
            let n = runs.len() as f64;
            let correct = runs.iter().map(|s| s.correct_frac()).sum::<f64>() / n;
            let incorrect = runs.iter().map(|s| s.incorrect_frac()).sum::<f64>() / n;
            for s in &runs {
                counts.word(s.correct);
                counts.word(s.incorrect);
                counts.word(s.total_evictions);
                counts.word(s.total_entries);
            }
            let row = &t4[c];
            checks.push(Check {
                what: format!("table4 row {name:?} against the reference FSM on every model"),
                ok: row.name == name
                    && same(row.correct, correct)
                    && same(row.incorrect, incorrect),
            });
        }
        Rows::Mssp(f7, f8) => {
            let events = fig7::mssp_events(opts);
            let base = ControllerParams::scaled();
            let long = base.monitor_period * 4;
            let f7_configs = [
                base,
                base.without_eviction(),
                base.with_monitor_period(long),
                base.without_eviction().with_monitor_period(long),
            ];
            let m = pick(&mut rng, models.len());
            let k = pick(&mut rng, f7_configs.len());
            let pop = models[m].population(events);
            let params = MsspParams::new().with_controller(f7_configs[k]);
            let r = machine::run_mssp_mode(
                &pop,
                InputId::Eval,
                events,
                opts.seed,
                &params,
                ExecMode::PerEvent,
            );
            for w in [r.baseline_cycles, r.mssp_cycles, r.tasks, r.task_misspecs] {
                counts.word(w);
            }
            let row = &f7[m];
            let got = [row.closed, row.open, row.closed_long, row.open_long][k];
            checks.push(Check {
                what: format!("fig7 config {k} of {}", models[m].name),
                ok: row.name == models[m].name
                    && same(got, r.baseline_cycles as f64 / r.mssp_cycles as f64),
            });

            let m = pick(&mut rng, models.len());
            let l = pick(&mut rng, fig8::LATENCIES.len());
            let pop = models[m].population(events);
            let params = MsspParams::new()
                .with_controller(ControllerParams::scaled().with_latency(fig8::LATENCIES[l]));
            let r = machine::run_mssp_mode(
                &pop,
                InputId::Eval,
                events,
                opts.seed,
                &params,
                ExecMode::PerEvent,
            );
            for w in [r.baseline_cycles, r.mssp_cycles, r.tasks, r.task_misspecs] {
                counts.word(w);
            }
            let row = &f8[m];
            checks.push(Check {
                what: format!("fig8 latency {} of {}", fig8::LATENCIES[l], models[m].name),
                ok: row.name == models[m].name
                    && same(row.perf[l], r.baseline_cycles as f64 / r.mssp_cycles as f64),
            });
        }
    }
    CheckReport {
        checks,
        counts_digest: counts.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_profile::{pareto, BranchProfile};

    #[test]
    fn every_workload_has_a_pinned_probe() {
        for kind in [Paper::Model, Paper::Mssp] {
            assert!(pinned(kind.name(), "probe").is_some(), "{}", kind.name());
            assert_eq!(Paper::from_name(kind.name()), Some(kind));
        }
        assert_eq!(pinned("paper-model", "no-such-seed"), None);
    }

    #[test]
    fn counted_knee_matches_the_profile_knee() {
        let model = spec2000::benchmark("gcc").expect("known benchmark");
        let pop = model.population(200_000);
        let trace = || pop.trace(InputId::Eval, 200_000, 3);
        let knee = pareto::threshold_point(&BranchProfile::from_trace(trace()), 0.99);
        let (incorrect, correct) = counted_knee(trace());
        assert!(same(incorrect, knee.incorrect) && same(correct, knee.correct));
        assert!(correct > 0.0);
    }
}

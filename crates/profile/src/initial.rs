//! Initial-behavior training: predicting a branch's lifetime bias from its
//! first N executions (the paper's Figure 2 "+" points).

use crate::profile::{for_each_chunk, BranchProfile};
use rsc_trace::{BranchRecord, Trace};

/// Builds a profile from only the first `n` executions of each branch.
///
/// The rest of the trace is consumed (so instruction/event totals remain
/// meaningful) but does not contribute to any branch's counts — exactly the
/// information available to a system that trains on initial behavior.
///
/// # Examples
///
/// ```
/// use rsc_trace::{spec2000, InputId};
/// use rsc_profile::initial;
///
/// let pop = spec2000::benchmark("gap").unwrap().population(30_000);
/// let p = initial::initial_profile(pop.trace(InputId::Eval, 30_000, 1), 100);
/// // No branch accumulates more than 100 profiled executions.
/// for i in 0..p.len() {
///     assert!(p.executions(i) <= 100);
/// }
/// ```
pub fn initial_profile<I: IntoIterator<Item = BranchRecord>>(trace: I, n: u64) -> BranchProfile {
    let mut profile = BranchProfile::new();
    let mut execs: Vec<u64> = Vec::new();
    for r in trace {
        let idx = r.branch.index();
        if idx >= execs.len() {
            execs.resize(idx + 1, 0);
        }
        if execs[idx] < n {
            execs[idx] += 1;
            profile.record(&r);
        }
    }
    profile
}

/// The whole-run profile plus [`initial_profile`] at every one of
/// `lengths`, from one chunked pass over `trace`.
///
/// One per-branch execution counter is shared by all lengths, so the trace
/// is generated once instead of once per consumer. The first profile is
/// bit-identical to [`BranchProfile::from_trace`] and the `k`-th of the
/// vector to `initial_profile(trace, lengths[k])`. Together with
/// [`evaluate_profile_after_training`](crate::evaluate::evaluate_profile_after_training)
/// they give every initial-behavior evaluation without another pass.
///
/// # Examples
///
/// ```
/// use rsc_trace::{spec2000, InputId};
/// use rsc_profile::{initial, BranchProfile};
///
/// let pop = spec2000::benchmark("gap").unwrap().population(30_000);
/// let trace = || pop.trace(InputId::Eval, 30_000, 1);
/// let (full, init) = initial::profile_with_initial(&mut trace(), &[10, 100]);
/// assert_eq!(full, BranchProfile::from_trace(trace()));
/// assert_eq!(init[1], initial::initial_profile(trace(), 100));
/// ```
pub fn profile_with_initial(
    trace: &mut Trace<'_>,
    lengths: &[u64],
) -> (BranchProfile, Vec<BranchProfile>) {
    // Sizing every vector for the whole population up front keeps the
    // profiles, which grow together, from reallocating around each other
    // (at 3M events that fragmentation alone cost fig2 ~0.5 MiB of peak
    // RSS).
    let branches = trace.population().branches().len();
    let mut full = BranchProfile::reserved(branches);
    let mut initial: Vec<BranchProfile> = lengths
        .iter()
        .map(|_| BranchProfile::reserved(branches))
        .collect();
    // Past the longest window no length records anything more, so the
    // counter saturates there.
    let longest = lengths.iter().copied().max().unwrap_or(0);
    let mut execs: Vec<u64> = Vec::with_capacity(branches);
    for_each_chunk(trace, |chunk| {
        full.record_chunk(chunk);
        if execs.len() < full.len() {
            execs.resize(full.len(), 0);
        }
        for r in chunk {
            let e = &mut execs[r.branch.index()];
            if *e >= longest {
                continue;
            }
            for (p, &n) in initial.iter_mut().zip(lengths) {
                if *e < n {
                    p.record(r);
                }
            }
            *e += 1;
        }
    });
    (full, initial)
}

/// The paper's five initial-training lengths (1k, 10k, 100k, 300k, 1M
/// executions).
pub const PAPER_TRAINING_LENGTHS: [u64; 5] = [1_000, 10_000, 100_000, 300_000, 1_000_000];

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_trace::BranchId;

    fn rec(b: u32, taken: bool, instr: u64) -> BranchRecord {
        BranchRecord {
            branch: BranchId::new(b),
            taken,
            instr,
        }
    }

    #[test]
    fn caps_per_branch_executions() {
        let trace: Vec<_> = (0..100).map(|i| rec(0, true, i)).collect();
        let p = initial_profile(trace, 10);
        assert_eq!(p.executions(0), 10);
    }

    #[test]
    fn captures_initial_not_overall_bias() {
        // Taken for first 10, then not-taken for 90: initial profile with
        // n=10 sees a 100% taken-biased branch.
        let trace: Vec<_> = (0..100).map(|i| rec(0, i < 10, i)).collect();
        let p = initial_profile(trace, 10);
        assert_eq!(p.bias(0), Some(1.0));
        assert_eq!(p.taken(0), 10);
    }

    #[test]
    fn independent_caps_per_branch() {
        let mut trace = Vec::new();
        for i in 0..20 {
            trace.push(rec(0, true, 2 * i));
            trace.push(rec(1, false, 2 * i + 1));
        }
        let p = initial_profile(trace, 5);
        assert_eq!(p.executions(0), 5);
        assert_eq!(p.executions(1), 5);
    }

    #[test]
    fn zero_length_training_profiles_nothing() {
        let trace = vec![rec(0, true, 1)];
        let p = initial_profile(trace, 0);
        assert_eq!(p.executions(0), 0);
    }

    #[test]
    fn paper_training_lengths_are_increasing() {
        for w in PAPER_TRAINING_LENGTHS.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}

//! Per-branch execution profiles.

use rsc_trace::{BranchId, BranchRecord, Direction};

/// Taken/not-taken counts for every static branch seen in a trace.
///
/// This is the raw material of every *offline* control technique the paper
/// examines: self-training, cross-input profiling, and initial-behavior
/// training all reduce to building a `BranchProfile` over some window and
/// selecting branches from it.
///
/// # Examples
///
/// ```
/// use rsc_trace::{spec2000, InputId};
/// use rsc_profile::BranchProfile;
///
/// let pop = spec2000::benchmark("mcf").unwrap().population(50_000);
/// let profile = BranchProfile::from_trace(pop.trace(InputId::Eval, 50_000, 1));
/// assert_eq!(profile.events(), 50_000);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BranchProfile {
    taken: Vec<u64>,
    not_taken: Vec<u64>,
    events: u64,
    instructions: u64,
}

impl BranchProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        BranchProfile::default()
    }

    /// Creates an empty profile pre-sized for `branches` static branches.
    pub fn with_capacity(branches: usize) -> Self {
        BranchProfile {
            taken: vec![0; branches],
            not_taken: vec![0; branches],
            events: 0,
            instructions: 0,
        }
    }

    /// An empty profile with room for `branches` static branches, so
    /// accumulating that many never reallocates.
    pub(crate) fn reserved(branches: usize) -> Self {
        BranchProfile {
            taken: Vec::with_capacity(branches),
            not_taken: Vec::with_capacity(branches),
            events: 0,
            instructions: 0,
        }
    }

    /// Accumulates an entire trace.
    pub fn from_trace<I: IntoIterator<Item = BranchRecord>>(trace: I) -> Self {
        let mut p = BranchProfile::new();
        for r in trace {
            p.record(&r);
        }
        p
    }

    /// Accumulates an entire trace through the chunked hot path
    /// ([`rsc_trace::Trace::fill`] into a reusable buffer, then
    /// [`record_chunk`](Self::record_chunk)).
    ///
    /// Bit-identical to [`from_trace`](Self::from_trace) on the same
    /// trace; it is simply faster.
    pub fn from_trace_chunked(trace: &mut rsc_trace::Trace<'_>) -> Self {
        let mut p = BranchProfile::new();
        for_each_chunk(trace, |chunk| p.record_chunk(chunk));
        p
    }

    /// Records one dynamic branch event.
    pub fn record(&mut self, r: &BranchRecord) {
        let idx = r.branch.index();
        if idx >= self.taken.len() {
            self.taken.resize(idx + 1, 0);
            self.not_taken.resize(idx + 1, 0);
        }
        if r.taken {
            self.taken[idx] += 1;
        } else {
            self.not_taken[idx] += 1;
        }
        self.events += 1;
        self.instructions = self.instructions.max(r.instr);
    }

    /// Records a chunk of dynamic branch events.
    ///
    /// Equivalent to calling [`record`](Self::record) on each record in
    /// order, but the count vectors are resized at most once per chunk and
    /// the accumulation loop touches no capacity checks.
    pub fn record_chunk(&mut self, records: &[BranchRecord]) {
        let max_idx = records.iter().map(|r| r.branch.index()).max();
        let Some(max_idx) = max_idx else { return };
        if max_idx >= self.taken.len() {
            self.taken.resize(max_idx + 1, 0);
            self.not_taken.resize(max_idx + 1, 0);
        }
        let mut instructions = self.instructions;
        for r in records {
            let idx = r.branch.index();
            if r.taken {
                self.taken[idx] += 1;
            } else {
                self.not_taken[idx] += 1;
            }
            instructions = instructions.max(r.instr);
        }
        self.instructions = instructions;
        self.events += records.len() as u64;
    }

    /// Merges another profile into this one (used for profile averaging).
    pub fn merge(&mut self, other: &BranchProfile) {
        if other.taken.len() > self.taken.len() {
            self.taken.resize(other.taken.len(), 0);
            self.not_taken.resize(other.not_taken.len(), 0);
        }
        for i in 0..other.taken.len() {
            self.taken[i] += other.taken[i];
            self.not_taken[i] += other.not_taken[i];
        }
        self.events += other.events;
        self.instructions = self.instructions.max(other.instructions);
    }

    /// Total dynamic branch events recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Highest instruction count observed.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Number of branch slots (upper bound on touched branches).
    pub fn len(&self) -> usize {
        self.taken.len()
    }

    /// Returns `true` if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Executions of the branch at `idx`.
    pub fn executions(&self, idx: usize) -> u64 {
        if idx < self.taken.len() {
            self.taken[idx] + self.not_taken[idx]
        } else {
            0
        }
    }

    /// Taken count of the branch at `idx`.
    pub fn taken(&self, idx: usize) -> u64 {
        self.taken.get(idx).copied().unwrap_or(0)
    }

    /// Not-taken count of the branch at `idx`.
    pub fn not_taken(&self, idx: usize) -> u64 {
        self.not_taken.get(idx).copied().unwrap_or(0)
    }

    /// Bias (majority fraction) of the branch at `idx`, or `None` if it
    /// never executed.
    pub fn bias(&self, idx: usize) -> Option<f64> {
        let n = self.executions(idx);
        if n == 0 {
            return None;
        }
        let t = self.taken(idx);
        Some(t.max(n - t) as f64 / n as f64)
    }

    /// Majority direction of the branch at `idx` (ties break taken), or
    /// `None` if it never executed.
    pub fn majority(&self, idx: usize) -> Option<Direction> {
        let n = self.executions(idx);
        if n == 0 {
            return None;
        }
        Some(if self.taken(idx) * 2 >= n {
            Direction::Taken
        } else {
            Direction::NotTaken
        })
    }

    /// Number of branches that executed at least once.
    pub fn touched(&self) -> usize {
        (0..self.taken.len())
            .filter(|&i| self.executions(i) > 0)
            .count()
    }

    /// Iterates over `(BranchId, executions, bias)` of touched branches.
    pub fn iter_touched(&self) -> impl Iterator<Item = (BranchId, u64, f64)> + '_ {
        (0..self.taken.len()).filter_map(move |i| {
            let n = self.executions(i);
            if n == 0 {
                None
            } else {
                Some((BranchId::new(i as u32), n, self.bias(i).expect("n > 0")))
            }
        })
    }
}

/// Drains `trace` through [`rsc_trace::Trace::fill`] into one reusable
/// buffer, handing each filled chunk to `f` in trace order.
pub(crate) fn for_each_chunk(trace: &mut rsc_trace::Trace<'_>, mut f: impl FnMut(&[BranchRecord])) {
    let mut buf = vec![
        BranchRecord {
            branch: BranchId::new(0),
            taken: false,
            instr: 0
        };
        4096
    ];
    loop {
        let n = trace.fill(&mut buf);
        if n == 0 {
            break;
        }
        f(&buf[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(b: u32, taken: bool, instr: u64) -> BranchRecord {
        BranchRecord {
            branch: BranchId::new(b),
            taken,
            instr,
        }
    }

    #[test]
    fn empty_profile_has_no_bias() {
        let p = BranchProfile::new();
        assert!(p.is_empty());
        assert_eq!(p.bias(0), None);
        assert_eq!(p.majority(0), None);
        assert_eq!(p.touched(), 0);
    }

    #[test]
    fn records_counts_and_majority() {
        let p = BranchProfile::from_trace(vec![
            rec(0, true, 1),
            rec(0, true, 2),
            rec(0, false, 3),
            rec(2, false, 4),
        ]);
        assert_eq!(p.events(), 4);
        assert_eq!(p.executions(0), 3);
        assert_eq!(p.taken(0), 2);
        assert_eq!(p.majority(0), Some(Direction::Taken));
        assert_eq!(p.majority(2), Some(Direction::NotTaken));
        assert_eq!(p.executions(1), 0);
        assert_eq!(p.touched(), 2);
        assert_eq!(p.instructions(), 4);
    }

    #[test]
    fn tie_breaks_taken() {
        let p = BranchProfile::from_trace(vec![rec(0, true, 1), rec(0, false, 2)]);
        assert_eq!(p.majority(0), Some(Direction::Taken));
        assert_eq!(p.bias(0), Some(0.5));
    }

    #[test]
    fn merge_adds_counts() {
        let a = BranchProfile::from_trace(vec![rec(0, true, 1), rec(1, false, 2)]);
        let b = BranchProfile::from_trace(vec![rec(0, true, 3), rec(3, true, 4)]);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.events(), 4);
        assert_eq!(m.executions(0), 2);
        assert_eq!(m.executions(3), 1);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn merge_smaller_into_larger_and_vice_versa() {
        let small = BranchProfile::from_trace(vec![rec(0, true, 1)]);
        let large = BranchProfile::from_trace(vec![rec(5, false, 1)]);
        let mut a = small.clone();
        a.merge(&large);
        let mut b = large;
        b.merge(&small);
        assert_eq!(a.executions(5), 1);
        assert_eq!(b.executions(0), 1);
    }

    #[test]
    fn iter_touched_skips_unexecuted() {
        let p = BranchProfile::from_trace(vec![rec(0, true, 1), rec(4, false, 2)]);
        let ids: Vec<usize> = p.iter_touched().map(|(b, _, _)| b.index()).collect();
        assert_eq!(ids, vec![0, 4]);
    }

    #[test]
    fn record_chunk_matches_per_record() {
        let records: Vec<BranchRecord> = (0..500u64)
            .map(|i| rec((i % 37) as u32, i % 3 == 0, i * 7))
            .collect();
        let mut per_record = BranchProfile::new();
        for r in &records {
            per_record.record(r);
        }
        for chunk_len in [1usize, 7, 64, 1000] {
            let mut chunked = BranchProfile::new();
            for chunk in records.chunks(chunk_len) {
                chunked.record_chunk(chunk);
            }
            assert_eq!(chunked, per_record, "chunk {chunk_len}");
        }
        // Empty chunks are no-ops.
        let mut p = per_record.clone();
        p.record_chunk(&[]);
        assert_eq!(p, per_record);
    }

    #[test]
    fn from_trace_chunked_matches_from_trace() {
        use rsc_trace::{spec2000, InputId};
        let pop = spec2000::benchmark("twolf").unwrap().population(30_000);
        let a = BranchProfile::from_trace(pop.trace(InputId::Eval, 30_000, 4));
        let b = BranchProfile::from_trace_chunked(&mut pop.trace(InputId::Eval, 30_000, 4));
        assert_eq!(a, b);
    }

    #[test]
    fn with_capacity_presizes() {
        let p = BranchProfile::with_capacity(16);
        assert_eq!(p.len(), 16);
        assert_eq!(p.touched(), 0);
    }
}

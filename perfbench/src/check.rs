//! The output check: every submission is classified and tallied, and
//! the tally must agree with the cluster's own counters and with the
//! counter values read back after the run.
//!
//! The check is strict where the protocol promises something and loose
//! exactly where a client cannot know the truth. An acknowledged
//! increment must be in the final value; an increment whose submission
//! timed out, came back unresolved, or was retried inside
//! `Cluster::submit` may or may not be.

use std::collections::BTreeMap;
use std::time::Duration;
use vsr_core::cohort::TxnOutcome;
use vsr_runtime::SubmitError;

/// `Cluster::submit` re-sends a request after waiting at most this long
/// for an attempt (its per-attempt slice is never shorter). A submission
/// that lasted `d` may therefore have left `d / MIN_RETRY_SLICE` earlier
/// attempts behind, each of which might still commit.
pub const MIN_RETRY_SLICE: Duration = Duration::from_millis(50);

/// How one submission ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `Ok(Committed)`.
    Committed,
    /// `Ok(Aborted)`: the transaction did not take effect.
    Aborted,
    /// `Ok(Unresolved)`: it may or may not have taken effect.
    Unresolved,
    /// `Err(SubmitError)`: it may or may not have taken effect.
    Error,
}

impl Outcome {
    /// Classify a submit result.
    pub fn of(result: &Result<TxnOutcome, SubmitError>) -> Outcome {
        match result {
            Ok(TxnOutcome::Committed { .. }) => Outcome::Committed,
            Ok(TxnOutcome::Aborted { .. }) => Outcome::Aborted,
            Ok(TxnOutcome::Unresolved) => Outcome::Unresolved,
            Err(_) => Outcome::Error,
        }
    }
}

/// Submission counts by outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Submissions made.
    pub attempted: u64,
    /// Committed.
    pub committed: u64,
    /// Aborted.
    pub aborted: u64,
    /// Unresolved.
    pub unresolved: u64,
    /// Submit errors.
    pub errors: u64,
}

impl Counts {
    /// Count one finished submission.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Committed => self.committed += 1,
            Outcome::Aborted => self.aborted += 1,
            Outcome::Unresolved => self.unresolved += 1,
            Outcome::Error => self.errors += 1,
        }
    }

    /// Submissions that did not commit.
    pub fn failed(&self) -> u64 {
        self.aborted + self.unresolved + self.errors
    }

    /// Add another tally into this one.
    pub fn add(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.unresolved += other.unresolved;
        self.errors += other.errors;
    }
}

/// The cluster's own client-outcome counters (`Cluster::metrics`),
/// which fold submit errors into `unresolved`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounts {
    /// `Metrics::submitted`.
    pub submitted: u64,
    /// `Metrics::committed`.
    pub committed: u64,
    /// `Metrics::aborted`.
    pub aborted: u64,
    /// `Metrics::unresolved`.
    pub unresolved: u64,
}

/// A violation when `attempted` is not the sum of the outcomes.
pub fn balance(counts: &Counts) -> Option<String> {
    (counts.attempted != counts.committed + counts.failed())
        .then(|| format!("attempted {} != committed + failed in {counts:?}", counts.attempted))
}

/// Check a tally for internal balance and against the cluster's
/// counters over the same submissions. Returns every violation found.
pub fn check_counts(ours: &Counts, cluster: &ClusterCounts) -> Vec<String> {
    let mut violations: Vec<String> = balance(ours).into_iter().collect();
    let theirs = ClusterCounts {
        submitted: ours.attempted,
        committed: ours.committed,
        aborted: ours.aborted,
        unresolved: ours.unresolved + ours.errors,
    };
    if theirs != *cluster {
        violations.push(format!("benchmark tally {theirs:?} != cluster counters {cluster:?}"));
    }
    violations
}

/// Per-object bounds on the final counter values.
#[derive(Debug, Clone, Default)]
pub struct Bounds {
    acked: BTreeMap<u64, u64>,
    maybe: BTreeMap<u64, u64>,
}

impl Bounds {
    /// Account an increment of `object` by `delta` whose submission
    /// ended with `outcome` after `took`.
    pub fn incr(&mut self, object: u64, delta: u64, outcome: Outcome, took: Duration) {
        let left_behind = (took.as_nanos() / MIN_RETRY_SLICE.as_nanos()) as u64;
        let last_attempt_unknown = matches!(outcome, Outcome::Unresolved | Outcome::Error);
        if outcome == Outcome::Committed {
            *self.acked.entry(object).or_default() += delta;
        }
        let maybe = delta * (left_behind + u64::from(last_attempt_unknown));
        if maybe > 0 {
            *self.maybe.entry(object).or_default() += maybe;
        }
    }

    /// Merge another client's bounds.
    pub fn add(&mut self, other: &Bounds) {
        for (o, v) in &other.acked {
            *self.acked.entry(*o).or_default() += v;
        }
        for (o, v) in &other.maybe {
            *self.maybe.entry(*o).or_default() += v;
        }
    }

    /// Check the final values read back after the run: each must hold
    /// every acknowledged increment and nothing beyond the increments
    /// that might have applied. `finals` must cover every object the
    /// bounds mention.
    pub fn check(&self, finals: &BTreeMap<u64, u64>) -> Vec<String> {
        let mut violations = Vec::new();
        for o in self.acked.keys().chain(self.maybe.keys()) {
            if !finals.contains_key(o) {
                violations.push(format!("object {o}: no final value read"));
            }
        }
        for (&o, &v) in finals {
            let lo = self.acked.get(&o).copied().unwrap_or(0);
            let hi = lo + self.maybe.get(&o).copied().unwrap_or(0);
            if v < lo {
                violations.push(format!("object {o}: final {v} lost acked increments (>= {lo})"));
            } else if v > hi {
                violations.push(format!("object {o}: final {v} exceeds every increment ({hi})"));
            }
        }
        violations
    }
}

/// One client's view of the counters it touched: values it sees must
/// never go backwards, and must include its own acknowledged writes.
#[derive(Debug, Clone, Default)]
pub struct Session {
    last: BTreeMap<u64, u64>,
}

impl Session {
    /// A committed read of `object` returned `value`.
    pub fn read(&mut self, object: u64, value: u64) -> Result<(), String> {
        let last = self.last.entry(object).or_default();
        if value < *last {
            return Err(format!("object {object}: read {value} after seeing {last}"));
        }
        *last = value;
        Ok(())
    }

    /// A committed increment of `object` by `delta` returned `value`.
    pub fn incr(&mut self, object: u64, delta: u64, value: u64) -> Result<(), String> {
        let last = self.last.entry(object).or_default();
        if value < *last + delta {
            return Err(format!("object {object}: +{delta} returned {value} after seeing {last}"));
        }
        *last = value;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Duration = Duration::from_millis(1);

    fn finals(pairs: &[(u64, u64)]) -> BTreeMap<u64, u64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn a_correct_tally_passes() {
        let mut b = Bounds::default();
        b.incr(1, 3, Outcome::Committed, QUICK);
        b.incr(1, 2, Outcome::Committed, QUICK);
        b.incr(2, 4, Outcome::Aborted, QUICK);
        assert!(b.check(&finals(&[(1, 5), (2, 0)])).is_empty());
    }

    #[test]
    fn a_wrong_tally_fails_the_check() {
        let mut b = Bounds::default();
        b.incr(1, 3, Outcome::Committed, QUICK);
        // The cluster holds one increment the tally never acknowledged...
        assert_eq!(b.check(&finals(&[(1, 4)])).len(), 1);
        // ...or lost one it did.
        assert_eq!(b.check(&finals(&[(1, 2)])).len(), 1);
        // An aborted increment that shows up anyway is a violation too.
        b.incr(2, 1, Outcome::Aborted, QUICK);
        assert_eq!(b.check(&finals(&[(1, 3), (2, 1)])).len(), 1);
        // So is an object the tally touched but nobody read back.
        assert_eq!(b.check(&finals(&[(2, 0)])).len(), 1);
    }

    #[test]
    fn unknown_outcomes_and_retries_widen_only_the_upper_bound() {
        let mut b = Bounds::default();
        b.incr(1, 2, Outcome::Unresolved, QUICK);
        b.incr(1, 5, Outcome::Error, QUICK);
        assert!(b.check(&finals(&[(1, 0)])).is_empty());
        assert!(b.check(&finals(&[(1, 7)])).is_empty());
        assert_eq!(b.check(&finals(&[(1, 8)])).len(), 1);
        // A committed submission that took two retry slices may have
        // committed on two abandoned attempts as well.
        let mut r = Bounds::default();
        r.incr(1, 1, Outcome::Committed, MIN_RETRY_SLICE * 2);
        assert!(r.check(&finals(&[(1, 3)])).is_empty());
        assert_eq!(r.check(&finals(&[(1, 0)])).len(), 1);
        assert_eq!(r.check(&finals(&[(1, 4)])).len(), 1);
    }

    #[test]
    fn counts_must_balance_and_match_the_cluster() {
        let mut c = Counts::default();
        for o in [Outcome::Committed, Outcome::Committed, Outcome::Aborted, Outcome::Error] {
            c.record(o);
        }
        let cluster = ClusterCounts { submitted: 4, committed: 2, aborted: 1, unresolved: 1 };
        assert!(check_counts(&c, &cluster).is_empty());
        let mut wrong = c;
        wrong.committed += 1;
        assert_eq!(check_counts(&wrong, &cluster).len(), 2);
        let lost = ClusterCounts { committed: 1, ..cluster };
        assert_eq!(check_counts(&c, &lost).len(), 1);
    }

    #[test]
    fn sessions_reject_going_backwards_and_missing_own_writes() {
        let mut s = Session::default();
        s.read(1, 4).unwrap();
        s.incr(1, 2, 6).unwrap();
        assert!(s.read(1, 5).is_err(), "a read must include the client's own write");
        let mut s = Session::default();
        s.read(1, 4).unwrap();
        assert!(s.incr(1, 1, 4).is_err(), "an increment must build on what was seen");
        s.read(1, 9).unwrap();
        assert!(s.read(1, 8).is_err(), "reads must not go backwards");
    }
}

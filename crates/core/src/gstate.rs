//! The group state (`gstate`): atomic objects, pending transaction
//! records, and transaction statuses (Figure 1, Section 3).
//!
//! Each object has a *base version* plus a commit version counter (used by
//! the one-copy-serializability checker) and, while transactions are
//! active, *tentative versions* held in the lock table. Backups follow the
//! "good compromise" of Section 3.3: they store "completed-call" records
//! (as part of the gstate) until the "committed" or "aborted" record for
//! the call's transaction is received; at that point records for a
//! committed transaction are applied, while those for an aborted
//! transaction are discarded.
//!
//! Statuses are kept only for the group's own transactions. Once a
//! participant decides a transaction another group coordinates, it keeps
//! no status for it, only the fact that it is *finished* here, packed
//! into runs of consecutive aids and a per-coordinator horizon (DESIGN
//! §14). So its per-transaction state is bounded by the transactions in
//! flight, not by how many have ever committed. A transaction it
//! committed alone, in one phase, stays marked as committed until its
//! coordinator's horizon passes it: those runs are the one outcome a
//! participant must still be able to repeat.

use crate::types::{Aid, CallId, GroupId, Mid, ObjectId, ViewId, Viewstamp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The value of an atomic object: an opaque byte string (the paper's base
/// version of "some type T"; applications encode their own types).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Value(pub Vec<u8>);

impl Value {
    /// An empty value.
    pub fn empty() -> Self {
        Value(Vec::new())
    }

    /// View the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Byte length, used for wire-size accounting in the experiments.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value(v)
    }
}

impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Self {
        Value(v.to_vec())
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value[{}B]", self.0.len())
    }
}

/// The kind of lock acquired on an object (strict two-phase locking with
/// read and write locks, Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LockMode {
    /// Shared read lock.
    Read,
    /// Exclusive write lock.
    Write,
}

/// One object access performed by a remote call, as recorded in a
/// "completed-call" event record: "the object-list lists all objects used
/// by the remote call, together with the type of lock acquired and the
/// tentative version if any" (Figure 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectAccess {
    /// The object touched.
    pub oid: ObjectId,
    /// The strongest lock acquired by this call on the object.
    pub mode: LockMode,
    /// The tentative version created, if the call wrote the object.
    pub written: Option<Value>,
    /// The commit version of the base value observed if the call read the
    /// object's base version (`None` when the read was satisfied by the
    /// transaction's own tentative version). Consumed by the
    /// one-copy-serializability checker.
    pub read_version: Option<u64>,
}

/// A stored "completed-call" event record (Section 3.3): everything a
/// backup needs to later set locks and create versions, and everything a
/// primary needs to answer a duplicate of the same call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletedCall {
    /// The viewstamp assigned to the completion event.
    pub vs: Viewstamp,
    /// The call this record completes (for duplicate suppression).
    pub call_id: CallId,
    /// Objects read and written.
    pub accesses: Vec<ObjectAccess>,
    /// The reply value returned to the caller.
    pub result: Value,
    /// The pset entries for nested calls made while processing this call
    /// (empty for leaf calls); merged into the reply pset.
    pub nested: Vec<(GroupId, Viewstamp)>,
}

/// The status of a transaction as known to a cohort, driven by the event
/// records of Section 3 ("committing", "committed", "aborted", "done").
///
/// Only the coordinator's group keeps a status past the record that set
/// it: `Committing` until its `done` record retires it, `Aborted` for
/// good (DESIGN §12). A participant's `Committed`/`Aborted` for another
/// group's transaction is retired by the same record that sets it, and
/// the aid joins the finished set ([`GroupState::is_finished`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnStatus {
    /// Coordinator side: the commit decision is made (the "committing"
    /// record); `plist` lists the non-read-only participants that must
    /// take part in phase two.
    Committing {
        /// Non-read-only participant groups.
        plist: Vec<GroupId>,
    },
    /// The transaction committed at this group.
    Committed,
    /// The transaction aborted.
    Aborted,
    /// Coordinator side: phase two finished (the "done" record).
    Done,
}

impl TxnStatus {
    /// Whether this status implies the transaction's commit decision was
    /// reached.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnStatus::Committing { .. } | TxnStatus::Committed | TxnStatus::Done)
    }
}

/// An object: base version plus a commit-version counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredObject {
    /// Current committed (base) value.
    pub value: Value,
    /// Number of committed writes applied to this object; read by the
    /// serializability checker.
    pub version: u64,
}

/// The replicated group state: objects, stored (pending) completed-call
/// records, the statuses of the group's own transactions, and the
/// finished set of other groups' transactions.
///
/// This structure is *identical* at primary and backups after applying the
/// same prefix of event records; that determinism is what lets a backup
/// take over as primary during a view change.
///
/// # Examples
///
/// ```
/// use vsr_core::gstate::{GroupState, Value};
/// use vsr_core::types::ObjectId;
///
/// let state = GroupState::with_objects([(ObjectId(1), Value::from(&b"v0"[..]))]);
/// let obj = state.object(ObjectId(1)).unwrap();
/// assert_eq!(obj.version, 0);
/// assert_eq!(obj.value.as_bytes(), b"v0");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct GroupState {
    // `pub(crate)` rather than private so the wire codec (`crate::wire`)
    // can reconstruct a state byte-for-byte from a checkpoint.
    pub(crate) objects: BTreeMap<ObjectId, StoredObject>,
    pub(crate) pending: BTreeMap<Aid, Vec<CompletedCall>>,
    pub(crate) statuses: BTreeMap<Aid, TxnStatus>,
    /// Calls whose subaction was aborted (Section 3.6): their records
    /// were dropped and late duplicates of them must never execute.
    pub(crate) dropped_calls: BTreeMap<Aid, Vec<CallId>>,
    /// Per coordinator group, the highest horizon learned from it: every
    /// aid of that group ordered below it is finished at its coordinator.
    pub(crate) horizons: BTreeMap<GroupId, Aid>,
    /// Runs of consecutive aids (one group and view each) of other
    /// groups' transactions decided here and above their group's
    /// horizon: first aid → one past the run's last seq.
    pub(crate) finished: BTreeMap<Aid, u64>,
    /// Runs, in the same form, of other groups' transactions this group
    /// committed alone in one phase and that lie at or above their
    /// group's horizon. Disjoint from `finished`: a horizon never absorbs
    /// them, only a coordinator's horizon record retires them, because
    /// until then the coordinator may re-send `PrepareCommit` and must
    /// hear "committed" again.
    pub(crate) one_phase: BTreeMap<Aid, u64>,
}

/// Whether `a` and `b` were created by the same coordinator primary, so
/// their seqs are consecutive numbers of one sequence.
fn same_sequence(a: Aid, b: Aid) -> bool {
    a.group == b.group && a.view == b.view
}

/// Whether `aid` lies in one of `runs`.
fn in_runs(runs: &BTreeMap<Aid, u64>, aid: Aid) -> bool {
    runs.range(..=aid)
        .next_back()
        .is_some_and(|(&start, &end)| same_sequence(start, aid) && aid.seq < end)
}

/// Add `aid`, which no run holds, to `runs`, merging it with the runs
/// that end just below it and start just above it.
fn add_to_runs(runs: &mut BTreeMap<Aid, u64>, aid: Aid) {
    let mut start = aid;
    if let Some((&before, &end)) = runs.range(..aid).next_back() {
        if same_sequence(before, aid) && end == aid.seq {
            start = before;
        }
    }
    let end = runs.remove(&Aid { seq: aid.seq + 1, ..aid }).unwrap_or(aid.seq + 1);
    runs.insert(start, end);
}

/// Drop the part of `runs` of `done_below.group` ordered below
/// `done_below`.
fn trim_runs(runs: &mut BTreeMap<Aid, u64>, done_below: Aid) {
    let low = *aids_of(done_below.group).start();
    let below: Vec<(Aid, u64)> = runs.range(low..done_below).map(|(&a, &end)| (a, end)).collect();
    for (start, end) in below {
        runs.remove(&start);
        if same_sequence(start, done_below) && end > done_below.seq {
            runs.insert(done_below, end);
        }
    }
}

/// Every aid `group` can create, in aid order.
fn aids_of(group: GroupId) -> std::ops::RangeInclusive<Aid> {
    let view = |n| ViewId { counter: n, manager: Mid(n) };
    Aid { group, view: view(0), seq: 0 }..=Aid { group, view: view(u64::MAX), seq: u64::MAX }
}

impl GroupState {
    /// An empty group state.
    pub fn new() -> Self {
        GroupState::default()
    }

    /// A group state pre-populated with initial objects (version 0).
    pub fn with_objects<I: IntoIterator<Item = (ObjectId, Value)>>(objects: I) -> Self {
        GroupState {
            objects: objects
                .into_iter()
                .map(|(oid, value)| (oid, StoredObject { value, version: 0 }))
                .collect(),
            pending: BTreeMap::new(),
            statuses: BTreeMap::new(),
            dropped_calls: BTreeMap::new(),
            horizons: BTreeMap::new(),
            finished: BTreeMap::new(),
            one_phase: BTreeMap::new(),
        }
    }

    /// The committed value of `oid`, if the object exists.
    pub fn object(&self, oid: ObjectId) -> Option<&StoredObject> {
        self.objects.get(&oid)
    }

    /// Iterate over all objects.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, &StoredObject)> + '_ {
        self.objects.iter().map(|(&oid, obj)| (oid, obj))
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Store a completed-call record for its transaction.
    pub fn store_call(&mut self, aid: Aid, record: CompletedCall) {
        self.pending.entry(aid).or_default().push(record);
    }

    /// The stored completed-call records for `aid`, in event order.
    pub fn pending_calls(&self, aid: Aid) -> &[CompletedCall] {
        self.pending.get(&aid).map_or(&[], |v| v.as_slice())
    }

    /// Find a stored record for `call_id` (duplicate-call suppression).
    pub fn find_call(&self, call_id: CallId) -> Option<&CompletedCall> {
        self.pending
            .get(&call_id.aid)
            .and_then(|records| records.iter().find(|r| r.call_id == call_id))
    }

    /// Transactions with stored records, in `Aid` order.
    pub fn pending_txns(&self) -> impl Iterator<Item = (Aid, &[CompletedCall])> + '_ {
        self.pending.iter().map(|(&aid, v)| (aid, v.as_slice()))
    }

    /// The recorded status of `aid`, if any.
    pub fn status(&self, aid: Aid) -> Option<&TxnStatus> {
        self.statuses.get(&aid)
    }

    /// Record a status, overwriting any previous one.
    ///
    /// Statuses only strengthen: `Committing → Committed → Done`; an
    /// `Aborted` status never replaces a committed-family status (the
    /// protocol never produces that transition; this is a defensive
    /// invariant).
    ///
    /// # Panics
    ///
    /// Panics if asked to change a committed-family status to `Aborted` or
    /// vice versa — that would be a one-copy-serializability violation.
    pub fn set_status(&mut self, aid: Aid, status: TxnStatus) {
        if let Some(old) = self.statuses.get(&aid) {
            let old_committed = old.is_committed();
            let new_committed = status.is_committed();
            assert_eq!(
                old_committed, new_committed,
                "transaction {aid} outcome flipped: {old:?} -> {status:?}"
            );
        }
        self.statuses.insert(aid, status);
    }

    /// Apply the transaction's tentative writes to the base versions, in
    /// record order, and discard its pending records ("install its
    /// tentative versions"). Records the `Committed` status.
    ///
    /// Returns the accesses of the installed records, for observability.
    pub fn install_commit(&mut self, aid: Aid) -> Vec<ObjectAccess> {
        self.dropped_calls.remove(&aid);
        let records = self.pending.remove(&aid).unwrap_or_default();
        let mut all_accesses = Vec::new();
        for record in records {
            for access in &record.accesses {
                if let Some(value) = &access.written {
                    let obj = self
                        .objects
                        .entry(access.oid)
                        .or_insert_with(|| StoredObject { value: Value::empty(), version: 0 });
                    obj.value = value.clone();
                    obj.version += 1;
                }
            }
            all_accesses.extend(record.accesses);
        }
        self.set_status(aid, TxnStatus::Committed);
        all_accesses
    }

    /// Discard the transaction's pending records and record the `Aborted`
    /// status.
    pub fn discard_abort(&mut self, aid: Aid) {
        self.pending.remove(&aid);
        self.dropped_calls.remove(&aid);
        self.set_status(aid, TxnStatus::Aborted);
    }

    /// Drop the records of aborted call-subactions (Section 3.6) and
    /// remember their ids so late duplicates are never executed.
    pub fn drop_calls(&mut self, aid: Aid, dropped: &[CallId]) {
        if let Some(records) = self.pending.get_mut(&aid) {
            records.retain(|r| !dropped.contains(&r.call_id));
            if records.is_empty() {
                self.pending.remove(&aid);
            }
        }
        self.dropped_calls.entry(aid).or_default().extend_from_slice(dropped);
    }

    /// Whether `call_id` belongs to an aborted call-subaction.
    pub fn is_dropped_call(&self, call_id: CallId) -> bool {
        self.dropped_calls.get(&call_id.aid).is_some_and(|v| v.contains(&call_id))
    }

    /// Whether there is any trace of `aid` at this cohort.
    pub fn knows(&self, aid: Aid) -> bool {
        self.pending.contains_key(&aid) || self.statuses.contains_key(&aid) || self.is_finished(aid)
    }

    /// Whether `aid`, a transaction another group coordinates, is
    /// finished here: this group applied its outcome record, or it lies
    /// below its coordinator's horizon. No late message for a finished
    /// transaction may execute a call or write a record (DESIGN §14).
    pub fn is_finished(&self, aid: Aid) -> bool {
        self.horizons.get(&aid.group).is_some_and(|h| aid < *h)
            || in_runs(&self.finished, aid)
            || in_runs(&self.one_phase, aid)
    }

    /// Whether this group committed `aid` alone, in one phase, and its
    /// coordinator's horizon has not yet passed it: the one finished
    /// transaction whose outcome a participant can still repeat.
    pub fn one_phase_committed(&self, aid: Aid) -> bool {
        in_runs(&self.one_phase, aid)
    }

    /// The one-phase runs: first aid and one past the last seq of each.
    pub fn one_phase_runs(&self) -> impl Iterator<Item = (Aid, u64)> + '_ {
        self.one_phase.iter().map(|(&start, &end)| (start, end))
    }

    /// The horizon learned from `group`, if any.
    pub fn horizon(&self, group: GroupId) -> Option<Aid> {
        self.horizons.get(&group).copied()
    }

    /// How many runs the finished set holds (each run is one group's
    /// consecutive aids above its horizon). Bounded by the gaps that
    /// transactions still in flight, or not yet covered by a horizon,
    /// leave between finished ones.
    pub fn finished_runs(&self) -> usize {
        self.finished.len()
    }

    /// Retire the outcome of another group's transaction: drop its status
    /// and add its aid to the finished set, merging neighbouring runs and
    /// moving the horizon up over a run that starts at it.
    fn finish(&mut self, aid: Aid) {
        self.statuses.remove(&aid);
        if self.is_finished(aid) {
            return;
        }
        add_to_runs(&mut self.finished, aid);
        self.absorb(aid.group);
    }

    /// Retire a one-phase commit of another group's transaction into the
    /// one-phase runs, which only a coordinator's horizon shrinks.
    fn finish_one_phase(&mut self, aid: Aid) {
        self.statuses.remove(&aid);
        if !self.is_finished(aid) {
            add_to_runs(&mut self.one_phase, aid);
        }
    }

    /// If a run starts exactly at `group`'s horizon, move the horizon to
    /// the run's end and drop the run.
    fn absorb(&mut self, group: GroupId) {
        let Some(h) = self.horizons.get(&group).copied() else { return };
        if let Some(end) = self.finished.remove(&h) {
            self.horizons.insert(group, Aid { seq: end, ..h });
        }
    }

    /// Whether [`Self::finish_below`] would move `done_below.group`'s
    /// horizon up.
    pub fn horizon_advances(&self, done_below: Aid) -> bool {
        self.horizons.get(&done_below.group).is_none_or(|h| done_below > *h)
    }

    /// Apply a coordinator horizon: every aid of `done_below.group`
    /// ordered below it has finished at its coordinator, so this group
    /// forgets its runs, statuses and dropped-call ids below it. No
    /// records are pending below it: the primary logs the outcome of a
    /// transaction still holding records here below the horizon before
    /// the `horizon` record (`Cohort::on_horizon`).
    pub fn finish_below(&mut self, done_below: Aid) {
        let group = done_below.group;
        if !self.horizon_advances(done_below) {
            return;
        }
        debug_assert!(
            !self.pending.keys().any(|aid| aid.group == group && *aid < done_below),
            "records pending below the horizon {done_below}"
        );
        self.horizons.insert(group, done_below);
        trim_runs(&mut self.finished, done_below);
        trim_runs(&mut self.one_phase, done_below);
        self.absorb(group);
        let low = *aids_of(group).start();
        let keep = |aid: &Aid| !(low..done_below).contains(aid);
        self.statuses.retain(|aid, _| keep(aid));
        self.dropped_calls.retain(|aid, _| keep(aid));
    }

    /// The first aid of `group` the finished set cannot yet account for
    /// although a later one is finished: the horizon when runs lie above
    /// it, else the end of the first of two or more runs. Asking the
    /// coordinator about it returns a horizon that closes the gap.
    ///
    /// One-phase runs wait on the coordinator's horizon by design, so one
    /// of them alone is no gap: serial one-phase commits extend a single
    /// run. Two or more runs of either kind are; without a horizon the
    /// first one-phase aid is then asked about, since the coordinator is
    /// most likely finished with it.
    pub fn first_gap(&self, group: GroupId) -> Option<Aid> {
        let mut finished = self.finished.range(aids_of(group));
        let mut kept = self.one_phase.range(aids_of(group));
        let first = finished.next();
        let first_kept = kept.next();
        let runs = usize::from(first.is_some())
            + usize::from(first_kept.is_some())
            + usize::from(finished.next().is_some())
            + usize::from(kept.next().is_some());
        match self.horizons.get(&group) {
            Some(&h) => (first.is_some() || runs >= 2).then_some(h),
            None if runs >= 2 => match (first_kept, first) {
                (Some((&start, _)), _) => Some(start),
                (None, Some((&start, &end))) => Some(Aid { seq: end, ..start }),
                (None, None) => None,
            },
            None => None,
        }
    }

    /// The groups the finished set holds runs (or one-phase runs) for.
    pub fn finished_groups(&self) -> Vec<GroupId> {
        let mut groups: Vec<GroupId> =
            self.finished.keys().chain(self.one_phase.keys()).map(|a| a.group).collect();
        groups.sort();
        groups.dedup();
        groups
    }

    /// All recorded statuses (used when a new primary resumes phase two for
    /// `Committing` transactions after a view change).
    pub fn statuses(&self) -> impl Iterator<Item = (Aid, &TxnStatus)> + '_ {
        self.statuses.iter().map(|(&aid, s)| (aid, s))
    }

    /// How many transactions currently have a recorded status.
    pub fn status_count(&self) -> usize {
        self.statuses.len()
    }

    /// Garbage-collect the status of one of the group's own finished
    /// transactions.
    ///
    /// Called when the coordinator's *done* record is applied: phase two
    /// is complete and every participant has acknowledged the outcome.
    /// Participants retire their own statuses as they decide (see
    /// [`Self::apply_record`]); together the two keep the status map
    /// bounded (DESIGN §14). Returns whether an entry was actually
    /// removed.
    pub fn retire(&mut self, aid: Aid) -> bool {
        self.statuses.remove(&aid).is_some()
    }

    /// Apply one event record's state transition at a cohort of `group`,
    /// with no observability side effects, and return the accesses a
    /// `committed` record installed (empty for every other record).
    ///
    /// This is the one rule every path applies: the live primary and
    /// backups (through the cohort, which adds observations), a newview
    /// record's `base + delta`, and crash recovery. An outcome record for
    /// a transaction another group coordinates retires its status at once
    /// into the finished set; a `horizon` record moves that group's
    /// horizon. Newview records carry no gstate transition and are
    /// skipped.
    pub fn apply_record(
        &mut self,
        group: GroupId,
        kind: &crate::event::EventKind,
    ) -> Vec<ObjectAccess> {
        use crate::event::EventKind;
        match kind {
            EventKind::CompletedCall { aid, record } => self.store_call(*aid, record.clone()),
            EventKind::Committing { aid, plist } => {
                self.set_status(*aid, TxnStatus::Committing { plist: plist.clone() });
            }
            EventKind::Committed { aid } => {
                let accesses = self.install_commit(*aid);
                if aid.group != group {
                    self.finish(*aid);
                }
                return accesses;
            }
            EventKind::OnePhaseCommitted { aid } => {
                let accesses = self.install_commit(*aid);
                self.finish_one_phase(*aid);
                return accesses;
            }
            EventKind::Aborted { aid } => {
                self.discard_abort(*aid);
                if aid.group != group {
                    self.finish(*aid);
                }
            }
            EventKind::Done { aid } => {
                self.retire(*aid);
            }
            EventKind::CallsDropped { aid, dropped } => self.drop_calls(*aid, dropped),
            EventKind::Horizon { done_below } => self.finish_below(*done_below),
            EventKind::NewView { .. } => {}
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Mid, Timestamp, ViewId};

    fn aid(seq: u64) -> Aid {
        Aid { group: GroupId(9), view: ViewId::initial(Mid(0)), seq }
    }

    fn vs(ts: u64) -> Viewstamp {
        Viewstamp::new(ViewId::initial(Mid(0)), Timestamp(ts))
    }

    fn write_access(oid: u64, bytes: &[u8]) -> ObjectAccess {
        ObjectAccess {
            oid: ObjectId(oid),
            mode: LockMode::Write,
            written: Some(Value::from(bytes)),
            read_version: None,
        }
    }

    fn call(ts: u64, call_seq: u64, accesses: Vec<ObjectAccess>) -> CompletedCall {
        CompletedCall {
            vs: vs(ts),
            call_id: CallId { aid: aid(0), seq: call_seq },
            accesses,
            result: Value::empty(),
            nested: Vec::new(),
        }
    }

    #[test]
    fn install_commit_applies_writes_in_order() {
        let mut g = GroupState::with_objects([(ObjectId(1), Value::from(&b"init"[..]))]);
        let a = aid(0);
        g.store_call(a, call(1, 0, vec![write_access(1, b"first")]));
        g.store_call(a, call(2, 1, vec![write_access(1, b"second")]));
        let accesses = g.install_commit(a);
        assert_eq!(accesses.len(), 2);
        let obj = g.object(ObjectId(1)).unwrap();
        assert_eq!(obj.value, Value::from(&b"second"[..]));
        assert_eq!(obj.version, 2);
        assert_eq!(g.status(a), Some(&TxnStatus::Committed));
        assert!(g.pending_calls(a).is_empty());
    }

    #[test]
    fn install_commit_creates_missing_objects() {
        let mut g = GroupState::new();
        let a = aid(0);
        g.store_call(a, call(1, 0, vec![write_access(7, b"new")]));
        g.install_commit(a);
        assert_eq!(g.object(ObjectId(7)).unwrap().value, Value::from(&b"new"[..]));
        assert_eq!(g.object(ObjectId(7)).unwrap().version, 1);
    }

    #[test]
    fn discard_abort_drops_records() {
        let mut g = GroupState::with_objects([(ObjectId(1), Value::from(&b"init"[..]))]);
        let a = aid(0);
        g.store_call(a, call(1, 0, vec![write_access(1, b"x")]));
        g.discard_abort(a);
        assert_eq!(g.object(ObjectId(1)).unwrap().value, Value::from(&b"init"[..]));
        assert_eq!(g.status(a), Some(&TxnStatus::Aborted));
        assert!(g.pending_calls(a).is_empty());
        assert!(g.knows(a));
    }

    #[test]
    fn find_call_by_id() {
        let mut g = GroupState::new();
        let a = aid(0);
        g.store_call(a, call(1, 5, vec![]));
        assert!(g.find_call(CallId { aid: a, seq: 5 }).is_some());
        assert!(g.find_call(CallId { aid: a, seq: 6 }).is_none());
        assert!(g.find_call(CallId { aid: aid(1), seq: 5 }).is_none());
    }

    #[test]
    fn status_strengthens() {
        let mut g = GroupState::new();
        let a = aid(0);
        g.set_status(a, TxnStatus::Committing { plist: vec![GroupId(1)] });
        assert!(g.status(a).unwrap().is_committed());
        g.set_status(a, TxnStatus::Committed);
        g.set_status(a, TxnStatus::Done);
        assert!(g.status(a).unwrap().is_committed());
    }

    #[test]
    #[should_panic(expected = "outcome flipped")]
    fn status_cannot_flip() {
        let mut g = GroupState::new();
        let a = aid(0);
        g.set_status(a, TxnStatus::Committed);
        g.set_status(a, TxnStatus::Aborted);
    }

    #[test]
    fn one_phase_runs_wait_for_the_coordinator_horizon() {
        use crate::event::EventKind;
        let mut g = GroupState::new();
        let foreign = |seq| Aid { group: GroupId(4), view: ViewId::initial(Mid(4)), seq };
        for seq in 0..3 {
            g.apply_record(GroupId(3), &EventKind::OnePhaseCommitted { aid: foreign(seq) });
        }
        assert!(g.one_phase_committed(foreign(1)));
        assert_eq!((g.one_phase_runs().count(), g.finished_runs(), g.status_count()), (1, 0, 0));
        assert_eq!(g.first_gap(GroupId(4)), None, "one run alone is no gap");
        g.apply_record(GroupId(3), &EventKind::OnePhaseCommitted { aid: foreign(5) });
        assert_eq!(g.first_gap(GroupId(4)), Some(foreign(0)), "two runs are");
        g.apply_record(GroupId(3), &EventKind::Horizon { done_below: foreign(2) });
        assert!(!g.one_phase_committed(foreign(1)) && g.is_finished(foreign(1)));
        assert!(g.one_phase_committed(foreign(2)) && g.one_phase_committed(foreign(5)));
        assert_eq!(g.horizon(GroupId(4)), Some(foreign(2)), "never absorbed past a kept outcome");
    }

    #[test]
    fn read_only_commit_installs_nothing() {
        let mut g = GroupState::with_objects([(ObjectId(1), Value::from(&b"init"[..]))]);
        let a = aid(0);
        g.store_call(
            a,
            call(
                1,
                0,
                vec![ObjectAccess {
                    oid: ObjectId(1),
                    mode: LockMode::Read,
                    written: None,
                    read_version: Some(0),
                }],
            ),
        );
        g.install_commit(a);
        let obj = g.object(ObjectId(1)).unwrap();
        assert_eq!(obj.version, 0);
        assert_eq!(obj.value, Value::from(&b"init"[..]));
    }
}

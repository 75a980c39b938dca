//! Property-based tests of the protocol core's data-structure
//! invariants.

use proptest::prelude::*;
use vsr_core::buffer::CommBuffer;
use vsr_core::cohort::{Effect, Timer, TxnOutcome};
use vsr_core::durable::{DurabilityGate, DurableEvent};
use vsr_core::event::EventKind;
use vsr_core::gstate::{CompletedCall, GroupState, LockMode, ObjectAccess, Value};
use vsr_core::history::History;
use vsr_core::locks::LockTable;
use vsr_core::messages::Message;
use vsr_core::pset::PSet;
use vsr_core::types::{Aid, CallId, GroupId, Mid, ObjectId, Timestamp, ViewId, Viewstamp};

fn arb_viewid() -> impl Strategy<Value = ViewId> {
    (0u64..50, 0u64..8).prop_map(|(counter, mid)| ViewId { counter, manager: Mid(mid) })
}

fn arb_viewstamp() -> impl Strategy<Value = Viewstamp> {
    (arb_viewid(), 0u64..1000).prop_map(|(id, ts)| Viewstamp::new(id, Timestamp(ts)))
}

proptest! {
    // ------------------------------------------------------------ types

    /// Viewstamps order lexicographically: viewid dominates timestamp.
    #[test]
    fn viewstamp_order_viewid_dominates(a in arb_viewstamp(), b in arb_viewstamp()) {
        if a.id < b.id {
            prop_assert!(a < b);
        } else if a.id == b.id {
            prop_assert_eq!(a < b, a.ts < b.ts);
        }
    }

    /// ViewId::successor always produces a strictly greater id, for any
    /// manager.
    #[test]
    fn viewid_successor_strictly_greater(v in arb_viewid(), m in 0u64..8) {
        let s = v.successor(Mid(m));
        prop_assert!(s > v);
    }

    /// Two successors by different managers never collide.
    #[test]
    fn viewid_successors_distinct(v in arb_viewid(), m1 in 0u64..8, m2 in 0u64..8) {
        prop_assume!(m1 != m2);
        prop_assert_ne!(v.successor(Mid(m1)), v.successor(Mid(m2)));
    }

    // ---------------------------------------------------------- history

    /// A history covers exactly the viewstamps at or below each view's
    /// recorded timestamp.
    #[test]
    fn history_covers_prefix(
        advances in prop::collection::vec(1u64..30, 1..6),
        probe_view in 0usize..6,
        probe_ts in 0u64..200,
    ) {
        let mut h = History::new();
        let mut totals = Vec::new();
        for (i, adv) in advances.iter().enumerate() {
            let vid = ViewId { counter: i as u64, manager: Mid(0) };
            h.open_view(vid);
            h.advance(vid, Timestamp(*adv));
            totals.push((vid, *adv));
        }
        let vid = ViewId { counter: probe_view as u64, manager: Mid(0) };
        let covered = h.covers(Viewstamp::new(vid, Timestamp(probe_ts)));
        let expected = totals
            .iter()
            .any(|&(v, ts)| v == vid && probe_ts <= ts);
        prop_assert_eq!(covered, expected);
    }

    /// compatible(pset, g, history) is monotone: advancing the history
    /// never turns a compatible pset incompatible.
    #[test]
    fn compatible_monotone_in_history(
        ts_entries in prop::collection::vec(0u64..50, 1..10),
        extra in 1u64..20,
    ) {
        let vid = ViewId::initial(Mid(0));
        let g = GroupId(1);
        let max = *ts_entries.iter().max().unwrap();
        let pset: PSet = ts_entries
            .iter()
            .map(|&ts| (g, Viewstamp::new(vid, Timestamp(ts))))
            .collect();
        let mut h = History::new();
        h.open_view(vid);
        h.advance(vid, Timestamp(max));
        prop_assert!(h.compatible(&pset, g));
        h.advance(vid, Timestamp(max + extra));
        prop_assert!(h.compatible(&pset, g), "advancing history preserved compatibility");
    }

    /// A pset entry above the history's timestamp makes it incompatible.
    #[test]
    fn compatible_rejects_unknown_events(known in 0u64..50, gap in 1u64..20) {
        let vid = ViewId::initial(Mid(0));
        let g = GroupId(1);
        let mut h = History::new();
        h.open_view(vid);
        h.advance(vid, Timestamp(known));
        let mut pset = PSet::new();
        pset.insert(g, Viewstamp::new(vid, Timestamp(known + gap)));
        prop_assert!(!h.compatible(&pset, g));
    }

    // ------------------------------------------------------------- pset

    /// vs_max returns the maximum entry for the group and ignores other
    /// groups.
    #[test]
    fn pset_vs_max_is_maximum(
        entries in prop::collection::vec((0u64..3, arb_viewstamp()), 1..20),
    ) {
        let pset: PSet = entries.iter().map(|&(g, vs)| (GroupId(g), vs)).collect();
        for g in 0..3u64 {
            let expected = entries
                .iter()
                .filter(|&&(eg, _)| eg == g)
                .map(|&(_, vs)| vs)
                .max();
            prop_assert_eq!(pset.vs_max(GroupId(g)), expected);
        }
    }

    /// merge is idempotent and commutative with respect to the entry
    /// set.
    #[test]
    fn pset_merge_idempotent_commutative(
        a in prop::collection::vec((0u64..3, arb_viewstamp()), 0..10),
        b in prop::collection::vec((0u64..3, arb_viewstamp()), 0..10),
    ) {
        let pa: PSet = a.iter().map(|&(g, vs)| (GroupId(g), vs)).collect();
        let pb: PSet = b.iter().map(|&(g, vs)| (GroupId(g), vs)).collect();
        let mut ab = pa.clone();
        ab.merge(&pb);
        let mut ab2 = ab.clone();
        ab2.merge(&pb);
        prop_assert_eq!(ab.len(), ab2.len(), "idempotent");
        let mut ba = pb.clone();
        ba.merge(&pa);
        let mut sa: Vec<_> = ab.iter().collect();
        let mut sb: Vec<_> = ba.iter().collect();
        sa.sort();
        sb.sort();
        prop_assert_eq!(sa, sb, "same entry set");
    }

    // ------------------------------------------------------------ locks

    /// The lock table never grants conflicting locks: after any sequence
    /// of (guarded) acquisitions, no object has a writer plus another
    /// holder.
    #[test]
    fn locks_never_conflict(
        ops in prop::collection::vec((0u64..5, 0u64..4, prop::bool::ANY), 1..60),
    ) {
        let mut table = LockTable::new();
        let mut granted: Vec<(Aid, ObjectId, LockMode)> = Vec::new();
        for (txn, obj, is_write) in ops {
            let aid = Aid { group: GroupId(1), view: ViewId::initial(Mid(0)), seq: txn };
            let oid = ObjectId(obj);
            if is_write {
                if table.can_write(aid, oid) {
                    table.acquire_write(aid, oid);
                    granted.push((aid, oid, LockMode::Write));
                }
            } else if table.can_read(aid, oid) {
                table.acquire_read(aid, oid);
                granted.push((aid, oid, LockMode::Read));
            }
        }
        // Check pairwise compatibility of live grants per object: at
        // most one writing transaction, and if one exists, no other
        // transaction holds any lock.
        for obj in 0..4u64 {
            let oid = ObjectId(obj);
            let writers: std::collections::BTreeSet<Aid> = granted
                .iter()
                .filter(|&&(_, o, m)| o == oid && m == LockMode::Write)
                .map(|&(a, _, _)| a)
                .collect();
            prop_assert!(writers.len() <= 1, "at most one writer of {}", oid);
            if let Some(&w) = writers.iter().next() {
                let readers: std::collections::BTreeSet<Aid> = granted
                    .iter()
                    .filter(|&&(_, o, m)| o == oid && m == LockMode::Read)
                    .map(|&(a, _, _)| a)
                    .collect();
                for r in readers {
                    prop_assert_eq!(r, w, "writer excludes foreign readers on {}", oid);
                }
            }
        }
    }

    /// release_all leaves no trace of the transaction.
    #[test]
    fn locks_release_all_is_total(
        ops in prop::collection::vec((0u64..3, 0u64..4, prop::bool::ANY), 1..40),
    ) {
        let mut table = LockTable::new();
        for (txn, obj, is_write) in &ops {
            let aid = Aid { group: GroupId(1), view: ViewId::initial(Mid(0)), seq: *txn };
            let oid = ObjectId(*obj);
            if *is_write {
                if table.can_write(aid, oid) {
                    table.acquire_write(aid, oid);
                    table.set_tentative(aid, oid, Value::from(&b"v"[..]));
                }
            } else if table.can_read(aid, oid) {
                table.acquire_read(aid, oid);
            }
        }
        let victims: Vec<Aid> = table.holders().collect();
        for aid in &victims {
            table.release_all(*aid);
        }
        prop_assert_eq!(table.holders().count(), 0);
        prop_assert_eq!(table.locked_objects(), 0);
        // Everything is acquirable again by a fresh transaction.
        let fresh = Aid { group: GroupId(1), view: ViewId::initial(Mid(0)), seq: 999 };
        for obj in 0..4u64 {
            prop_assert!(table.can_write(fresh, ObjectId(obj)));
        }
    }

    // ----------------------------------------------------------- buffer

    /// The buffer watermark equals the k-th largest acknowledgement and
    /// forces fire exactly when covered, regardless of ack interleaving.
    #[test]
    fn buffer_forces_fire_at_watermark(
        n_backups in 2usize..6,
        n_events in 1u64..20,
        ack_order in prop::collection::vec((0usize..6, 1u64..20), 0..60),
    ) {
        let backups: Vec<Mid> = (1..=n_backups as u64).map(Mid).collect();
        let sub_majority = n_backups.div_ceil(2); // majority of (n_backups+1) minus primary
        let mut buf: CommBuffer<u64> =
            CommBuffer::new(ViewId::initial(Mid(0)), &backups, sub_majority);
        let mut vss = Vec::new();
        for s in 0..n_events {
            let aid = Aid { group: GroupId(1), view: ViewId::initial(Mid(0)), seq: s };
            vss.push(buf.add(EventKind::Committed { aid }));
        }
        // Force every event.
        let mut pending: std::collections::BTreeSet<u64> = (0..n_events).collect();
        for (i, vs) in vss.iter().enumerate() {
            if buf.force_to(*vs, i as u64) {
                pending.remove(&(i as u64));
            }
        }
        let mut acked: Vec<u64> = vec![0; n_backups];
        for (b, upto) in ack_order {
            if b >= n_backups {
                continue;
            }
            let upto = upto.min(n_events);
            let fired = buf.on_ack(Mid(b as u64 + 1), Timestamp(upto));
            acked[b] = acked[b].max(upto);
            // Recompute the expected watermark: k-th largest ack.
            let mut sorted = acked.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let watermark = sorted[sub_majority - 1];
            prop_assert_eq!(buf.watermark(), Timestamp(watermark));
            for f in fired {
                prop_assert!(f < watermark, "force {f} fired at watermark {watermark}");
                prop_assert!(pending.remove(&f), "force {f} fired exactly once");
            }
            for &p in &pending {
                prop_assert!(p + 1 > watermark, "pending force {p} not yet covered");
            }
        }
    }

    /// records_after always returns a timestamp-sorted suffix with all
    /// timestamps strictly greater than the cursor.
    #[test]
    fn buffer_records_after_sorted_suffix(n_events in 0u64..30, cursor in 0u64..35) {
        let mut buf: CommBuffer<()> =
            CommBuffer::new(ViewId::initial(Mid(0)), &[Mid(1)], 1);
        for s in 0..n_events {
            let aid = Aid { group: GroupId(1), view: ViewId::initial(Mid(0)), seq: s };
            buf.add(EventKind::Committed { aid });
        }
        let records = buf.records_after(Timestamp(cursor));
        let expected = n_events.saturating_sub(cursor);
        prop_assert_eq!(records.len() as u64, expected);
        let mut last = cursor;
        for r in records {
            prop_assert!(r.ts().0 > cursor);
            prop_assert!(r.ts().0 > last || last == cursor);
            last = r.ts().0;
        }
    }

    // ----------------------------------------------------------- gstate

    /// install_commit applies the last write per object and bumps the
    /// version once per write access, independent of how the writes are
    /// split across calls.
    #[test]
    fn gstate_install_applies_last_write(
        writes in prop::collection::vec((0u64..4, prop::collection::vec(any::<u8>(), 0..8)), 1..12),
        split in 1usize..4,
    ) {
        let aid = Aid { group: GroupId(1), view: ViewId::initial(Mid(0)), seq: 0 };
        let mut g = GroupState::new();
        for (i, chunk) in writes.chunks(split).enumerate() {
            let accesses: Vec<ObjectAccess> = chunk
                .iter()
                .map(|(o, v)| ObjectAccess {
                    oid: ObjectId(*o),
                    mode: LockMode::Write,
                    written: Some(Value(v.clone())),
                    read_version: None,
                })
                .collect();
            g.store_call(aid, CompletedCall {
                vs: Viewstamp::new(ViewId::initial(Mid(0)), Timestamp(i as u64 + 1)),
                call_id: CallId { aid, seq: i as u64 },
                accesses,
                result: Value::empty(),
                nested: Vec::new(),
            });
        }
        g.install_commit(aid);
        for obj in 0..4u64 {
            let expected_value = writes
                .iter()
                .rev()
                .find(|(o, _)| *o == obj)
                .map(|(_, v)| Value(v.clone()));
            let expected_version =
                writes.iter().filter(|(o, _)| *o == obj).count() as u64;
            match expected_value {
                Some(v) => {
                    let stored = g.object(ObjectId(obj)).unwrap();
                    prop_assert_eq!(&stored.value, &v);
                    prop_assert_eq!(stored.version, expected_version);
                }
                None => prop_assert!(g.object(ObjectId(obj)).is_none()),
            }
        }
    }

    // ------------------------------------------------- durability gate

    /// Over random persist / admit / sync scripts, no effect asserting
    /// durability leaves the gate with a stamp above what the store has
    /// synced, such effects leave in the order they were admitted,
    /// others never wait, and a sync covering every append empties the
    /// gate. Op codes: 0 persists `n` records (synced inline when the
    /// flag is set); 1 admits an effect of kind `n`; 2 completes a sync
    /// that leaves the last `n` records unsynced; 3 is such a sync
    /// whose completion never reaches the gate.
    #[test]
    fn durability_gate_releases_only_covered_effects_in_order(
        ops in prop::collection::vec((0u64..4, 0u64..4, prop::bool::ANY), 1..80),
    ) {
        let mut gate = DurabilityGate::new(0, 0);
        // The store's truth: records appended, and how many of the
        // newest are unsynced.
        let (mut appended, mut unsynced) = (0u64, 0u64);
        // Admission stamp of each asserting effect, keyed by request id.
        let mut stamps = Vec::new();
        let mut out = Vec::new();
        // Check and record the asserting effects that left the gate.
        let leave = |effects: Vec<Effect>,
                     synced: u64,
                     out: &mut Vec<u64>,
                     stamps: &[u64]|
         -> Result<(), TestCaseError> {
            for effect in effects {
                if let Effect::TxnResult { req_id, .. }
                | Effect::Send { to: Mid(req_id), msg: Message::ImAlive { .. } } = effect
                {
                    prop_assert!(stamps[req_id as usize] <= synced);
                    out.push(req_id);
                }
            }
            Ok(())
        };
        for (op, n, inline) in ops {
            match op {
                0 => {
                    appended += n;
                    unsynced = if inline { 0 } else { unsynced + n };
                    let released = gate.persisted(n, unsynced);
                    leave(released, appended - unsynced, &mut out, &stamps)?;
                }
                1 => {
                    let id = stamps.len() as u64;
                    let effect = match n {
                        0 => Effect::TxnResult { req_id: id, aid: None, outcome: TxnOutcome::Unresolved },
                        1 => Effect::Send {
                            to: Mid(id),
                            msg: Message::ImAlive { from: Mid(0), viewid: ViewId::initial(Mid(0)) },
                        },
                        2 => Effect::SetTimer { after: 1, timer: Timer::Heartbeat },
                        _ => Effect::Persist(DurableEvent::Sync),
                    };
                    if n < 2 {
                        stamps.push(appended);
                    } else {
                        prop_assert_eq!(gate.admit(effect.clone()), Some(effect));
                        continue;
                    }
                    let passed = gate.admit(effect).into_iter().collect();
                    leave(passed, appended - unsynced, &mut out, &stamps)?;
                }
                2 => {
                    unsynced = unsynced.min(n);
                    let released = gate.synced(appended.saturating_sub(n));
                    leave(released, appended - unsynced, &mut out, &stamps)?;
                }
                _ => unsynced = unsynced.min(n),
            }
            prop_assert!(unsynced == 0 || gate.is_dirty(), "the gate never runs ahead of the store");
        }
        leave(gate.synced(gate.appended()), appended, &mut out, &stamps)?;
        prop_assert!(!gate.is_dirty());
        let admitted: Vec<u64> = (0..stamps.len() as u64).collect();
        prop_assert_eq!(out, admitted);
    }
}

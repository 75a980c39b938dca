//! Message-driven protocol tests: drive cohorts directly with wire
//! messages and assert on the exact effects, pinning down Figure 2/3/5
//! behaviors without a network in between.

use std::collections::BTreeMap;
use vsr_app::counter;
use vsr_core::cohort::{Cohort, CohortParams, Effect, Observation, Status};
use vsr_core::config::CohortConfig;
use vsr_core::durable::RecoveredState;
use vsr_core::messages::{CallOutcome, Message, QueryOutcome};
use vsr_core::module::NullModule;
use vsr_core::pset::PSet;
use vsr_core::types::{Aid, CallId, GroupId, Mid, ObjectId, Timestamp, ViewId, Viewstamp};
use vsr_core::view::{Configuration, View};

const SERVER: GroupId = GroupId(2);
const CLIENT_MID: Mid = Mid(100);

/// A three-cohort server group; returns the cohort `mid` plays.
/// Immediate buffer flushing makes replication effects synchronous and
/// assertable.
fn server_cohort(mid: Mid) -> Cohort {
    let config = Configuration::new(SERVER, vec![Mid(1), Mid(2), Mid(3)]);
    let mut peers = BTreeMap::new();
    peers.insert(SERVER, config.clone());
    let mut cfg = CohortConfig::new();
    cfg.buffer_flush_interval = 0;
    let mut cohort = Cohort::new(CohortParams {
        cfg,
        mid,
        configuration: config,
        initial_primary: Mid(1),
        peers,
        module: Box::new(counter::CounterModule),
    });
    cohort.start(0);
    cohort
}

fn aid(seq: u64) -> Aid {
    Aid { group: GroupId(9), view: ViewId::initial(CLIENT_MID), seq }
}

fn call_msg(cohort: &Cohort, a: Aid, seq: u64) -> Message {
    let op = counter::incr(SERVER, 0, 1);
    Message::Call {
        viewid: cohort.cur_viewid(),
        call_id: CallId { aid: a, seq },
        proc: op.proc,
        args: op.args,
    }
}

/// A participant keeps no status for another group's decided
/// transaction: the outcome record retires it into the finished set,
/// and nothing of it is left pending or locked.
fn assert_finished(cohort: &Cohort, a: Aid) {
    assert!(cohort.gstate().status(a).is_none(), "status retired");
    assert!(cohort.gstate().is_finished(a), "finished here");
    assert!(cohort.gstate().pending_calls(a).is_empty(), "no records left");
    assert!(!cohort.locks().holds_any(a), "no locks left");
}

fn sends(effects: &[Effect]) -> Vec<&Message> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send { msg, .. } => Some(msg),
            _ => None,
        })
        .collect()
}

// ----------------------------------------------------------------------
// Figure 3: server-side call processing
// ----------------------------------------------------------------------

#[test]
fn backup_rejects_calls() {
    let mut backup = server_cohort(Mid(2));
    let msg = call_msg(&backup, aid(0), 0);
    let effects = backup.on_message(10, CLIENT_MID, msg);
    let msgs = sends(&effects);
    assert_eq!(msgs.len(), 1);
    match msgs[0] {
        Message::CallReject { newer: Some((viewid, view)), .. } => {
            assert_eq!(*viewid, backup.cur_viewid());
            assert_eq!(view.primary(), Mid(1), "redirects to the primary");
        }
        other => panic!("expected informative rejection, got {other:?}"),
    }
}

#[test]
fn stale_viewid_call_rejected_with_current_view() {
    let mut primary = server_cohort(Mid(1));
    let op = counter::incr(SERVER, 0, 1);
    let stale = Message::Call {
        viewid: ViewId { counter: 99, manager: Mid(9) }, // wrong view
        call_id: CallId { aid: aid(0), seq: 0 },
        proc: op.proc,
        args: op.args,
    };
    let effects = primary.on_message(10, CLIENT_MID, stale);
    let msgs = sends(&effects);
    assert!(matches!(msgs[0], Message::CallReject { newer: Some(_), .. }));
    assert!(primary.gstate().pending_calls(aid(0)).is_empty(), "not executed");
}

#[test]
fn flush_shares_one_record_window_per_distinct_watermark() {
    // Both backups lag at ack watermark zero after the first call, so
    // the flush must hand them the *same* record-window allocation
    // (one clone per distinct watermark, not one per backup) and report
    // the saving in telemetry.
    let mut primary = server_cohort(Mid(1));
    let effects = primary.on_message(10, CLIENT_MID, call_msg(&primary, aid(0), 0));
    let windows: Vec<_> = effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send { msg: Message::BufferSend { records, .. }, .. } => Some(records),
            _ => None,
        })
        .collect();
    assert_eq!(windows.len(), 2, "one BufferSend per lagging backup");
    assert!(
        std::sync::Arc::ptr_eq(windows[0], windows[1]),
        "backups at the same watermark share one record window"
    );
    let flushed = effects.iter().find_map(|e| match e {
        Effect::Observe(Observation::BufferFlushed { sends, clones_saved, .. }) => {
            Some((*sends, *clones_saved))
        }
        _ => None,
    });
    assert_eq!(flushed, Some((2, 1)), "the saved clone is reported in telemetry");
}

#[test]
fn call_reply_carries_pset_entry() {
    let mut primary = server_cohort(Mid(1));
    let effects = primary.on_message(10, CLIENT_MID, call_msg(&primary, aid(0), 0));
    let msgs = sends(&effects);
    let reply = msgs
        .iter()
        .find_map(|m| match m {
            Message::CallReply { outcome: CallOutcome::Ok { pset, .. }, .. } => Some(pset),
            _ => None,
        })
        .expect("replied");
    assert_eq!(reply.len(), 1);
    let (group, vs) = reply.iter().next().unwrap();
    assert_eq!(group, SERVER);
    assert_eq!(vs.id, primary.cur_viewid());
    // The completed-call record went into the buffer stream too.
    assert!(effects
        .iter()
        .any(|e| matches!(e, Effect::Send { msg: Message::BufferSend { .. }, .. })));
}

// ----------------------------------------------------------------------
// Figure 3: prepare processing
// ----------------------------------------------------------------------

/// Drive a call through the primary and ack the buffer from both
/// backups so later forces pass instantly; returns the call's
/// viewstamp.
fn run_call_and_ack(primary: &mut Cohort, a: Aid) -> Viewstamp {
    let effects = primary.on_message(10, CLIENT_MID, call_msg(primary, a, 0));
    let vs = sends(&effects)
        .iter()
        .find_map(|m| match m {
            Message::CallReply { outcome: CallOutcome::Ok { pset, .. }, .. } => pset.vs_max(SERVER),
            _ => None,
        })
        .expect("reply with viewstamp");
    for b in [Mid(2), Mid(3)] {
        primary.on_message(
            12,
            b,
            Message::BufferAck { viewid: primary.cur_viewid(), from: b, upto: vs.ts },
        );
    }
    vs
}

#[test]
fn prepare_with_known_records_votes_yes() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let vs = run_call_and_ack(&mut primary, a);
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    let effects = primary.on_message(
        20,
        CLIENT_MID,
        Message::Prepare { aid: a, pset, coordinator: CLIENT_MID },
    );
    let msgs = sends(&effects);
    assert!(
        msgs.iter().any(|m| matches!(m, Message::PrepareOk { read_only: false, .. })),
        "voted yes: {msgs:?}"
    );
    // The fast path was taken (records already at a sub-majority).
    assert!(effects.iter().any(|e| matches!(
        e,
        Effect::Observe(Observation::PrepareProcessed { waited: false, .. })
    )));
}

#[test]
fn prepare_with_unknown_viewstamp_refuses_and_aborts() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    run_call_and_ack(&mut primary, a);
    // The pset claims an event from a view this cohort never saw.
    let mut pset = PSet::new();
    pset.insert(SERVER, Viewstamp::new(ViewId { counter: 7, manager: Mid(9) }, Timestamp(3)));
    let effects = primary.on_message(
        20,
        CLIENT_MID,
        Message::Prepare { aid: a, pset, coordinator: CLIENT_MID },
    );
    let msgs = sends(&effects);
    assert!(msgs.iter().any(|m| matches!(m, Message::PrepareRefuse { .. })));
    // "Otherwise, send a message to the coordinator refusing the prepare
    // and abort the transaction."
    assert!(primary.gstate().pending_calls(a).is_empty(), "records discarded");
}

#[test]
fn read_only_prepare_commits_immediately_without_phase_two() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    // A read-only call.
    let op = counter::read(SERVER, 0);
    let effects = primary.on_message(
        10,
        CLIENT_MID,
        Message::Call {
            viewid: primary.cur_viewid(),
            call_id: CallId { aid: a, seq: 0 },
            proc: op.proc,
            args: op.args,
        },
    );
    let vs = sends(&effects)
        .iter()
        .find_map(|m| match m {
            Message::CallReply { outcome: CallOutcome::Ok { pset, .. }, .. } => pset.vs_max(SERVER),
            _ => None,
        })
        .expect("replied");
    for b in [Mid(2), Mid(3)] {
        primary.on_message(
            12,
            b,
            Message::BufferAck { viewid: primary.cur_viewid(), from: b, upto: vs.ts },
        );
    }
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    let effects = primary.on_message(
        20,
        CLIENT_MID,
        Message::Prepare { aid: a, pset, coordinator: CLIENT_MID },
    );
    let msgs = sends(&effects);
    assert!(
        msgs.iter().any(|m| matches!(m, Message::PrepareOk { read_only: true, .. })),
        "read-only vote: {msgs:?}"
    );
    // "If the transaction is read-only, add a <"committed", aid> record"
    // — committed locally with no commit message needed. The record
    // retires the participant's status at once: the aid is finished here.
    assert!(
        effects.iter().any(|e| matches!(e, Effect::Observe(Observation::TxnCommitted { .. }))),
        "committed record applied: {effects:?}"
    );
    assert_finished(&primary, a);
}

#[test]
fn duplicate_prepare_after_commit_revotes_yes() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let vs = run_call_and_ack(&mut primary, a);
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    primary.on_message(
        20,
        CLIENT_MID,
        Message::Prepare { aid: a, pset: pset.clone(), coordinator: CLIENT_MID },
    );
    primary.on_message(30, CLIENT_MID, Message::Commit { aid: a, coordinator: CLIENT_MID });
    // A duplicate (delayed) prepare arrives after the commit.
    let effects = primary.on_message(
        40,
        CLIENT_MID,
        Message::Prepare { aid: a, pset, coordinator: CLIENT_MID },
    );
    assert!(sends(&effects).iter().any(|m| matches!(m, Message::PrepareOk { .. })));
}

#[test]
fn duplicate_commit_is_reacked_idempotently() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let vs = run_call_and_ack(&mut primary, a);
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    primary.on_message(20, CLIENT_MID, Message::Prepare { aid: a, pset, coordinator: CLIENT_MID });
    let first =
        primary.on_message(30, CLIENT_MID, Message::Commit { aid: a, coordinator: CLIENT_MID });
    let value_after_first =
        primary.gstate().object(vsr_core::types::ObjectId(0)).map(|o| (o.version, o.value.clone()));
    let second =
        primary.on_message(40, CLIENT_MID, Message::Commit { aid: a, coordinator: CLIENT_MID });
    assert!(sends(&second).iter().any(|m| matches!(m, Message::CommitDone { .. })));
    let value_after_second =
        primary.gstate().object(vsr_core::types::ObjectId(0)).map(|o| (o.version, o.value.clone()));
    assert_eq!(value_after_first, value_after_second, "no double install");
    let _ = first;
}

// ----------------------------------------------------------------------
// Section 3.4: queries
// ----------------------------------------------------------------------

#[test]
fn query_about_unknown_old_view_transaction_answers_aborted() {
    // A coordinator-group primary answers Aborted for a transaction
    // created in an *older view* of its own group that it has no trace
    // of (the automatic-abort rule).
    let client_group = GroupId(9);
    let config = Configuration::new(client_group, vec![Mid(100), Mid(101), Mid(102)]);
    let mut peers = BTreeMap::new();
    peers.insert(client_group, config.clone());
    let mut coord = Cohort::new(CohortParams {
        cfg: CohortConfig::new(),
        mid: Mid(100),
        configuration: config,
        initial_primary: Mid(100),
        peers,
        module: Box::new(NullModule),
    });
    coord.start(0);
    // Force a view change by driving the protocol: invite from a peer
    // with a higher viewid, then deliver an init-view back.
    let higher = ViewId { counter: 5, manager: Mid(101) };
    coord.on_message(10, Mid(101), Message::Invite { viewid: higher, manager: Mid(101) });
    assert_eq!(coord.status(), Status::Underling);
    let effects = coord.on_message(
        20,
        Mid(101),
        Message::InitView { viewid: higher, view: View::new(Mid(100), vec![Mid(101), Mid(102)]) },
    );
    assert!(coord.is_active_primary());
    assert_eq!(coord.cur_viewid(), higher);
    let _ = effects;
    // Query about an aid from the old view.
    let old_aid = Aid { group: client_group, view: ViewId::initial(Mid(100)), seq: 3 };
    let effects = coord.on_message(30, Mid(7), Message::Query { aid: old_aid, reply_to: Mid(7) });
    let msgs = sends(&effects);
    assert!(
        msgs.iter()
            .any(|m| matches!(m, Message::QueryReply { outcome: QueryOutcome::Aborted, .. })),
        "automatic abort answered: {msgs:?}"
    );
}

#[test]
fn backup_stays_silent_on_unknown_queries() {
    let mut backup = server_cohort(Mid(2));
    let effects = backup.on_message(10, Mid(7), Message::Query { aid: aid(5), reply_to: Mid(7) });
    assert!(sends(&effects).is_empty(), "don't guess: stay silent");
}

#[test]
fn query_reply_commits_prepared_transaction() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let vs = run_call_and_ack(&mut primary, a);
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    primary.on_message(20, CLIENT_MID, Message::Prepare { aid: a, pset, coordinator: CLIENT_MID });
    assert!(primary.gstate().status(a).is_none(), "prepared but undecided");
    // The commit message was lost; a query reply resolves it.
    let effects = primary.on_message(
        400,
        Mid(100),
        Message::QueryReply { aid: a, outcome: QueryOutcome::Committed },
    );
    assert!(
        effects.iter().any(|e| matches!(e, Effect::Observe(Observation::TxnCommitted { .. }))),
        "committed through the query path: {effects:?}"
    );
    assert_eq!(primary.gstate().object(ObjectId(0)).map(|o| o.version), Some(1), "installed");
    assert_finished(&primary, a);
}

// ----------------------------------------------------------------------
// Figure 5: view change messages
// ----------------------------------------------------------------------

#[test]
fn invite_with_lower_viewid_ignored() {
    let mut cohort = server_cohort(Mid(2));
    // First accept a high viewid.
    let high = ViewId { counter: 9, manager: Mid(3) };
    cohort.on_message(10, Mid(3), Message::Invite { viewid: high, manager: Mid(3) });
    assert_eq!(cohort.status(), Status::Underling);
    // A lower one must be ignored entirely.
    let low = ViewId { counter: 2, manager: Mid(1) };
    let effects = cohort.on_message(20, Mid(1), Message::Invite { viewid: low, manager: Mid(1) });
    assert!(sends(&effects).is_empty());
}

#[test]
fn duplicate_invite_reaccepted() {
    let mut cohort = server_cohort(Mid(2));
    let vid = ViewId { counter: 9, manager: Mid(3) };
    let first = cohort.on_message(10, Mid(3), Message::Invite { viewid: vid, manager: Mid(3) });
    // The acceptance was lost; the (retransmitted) invite arrives again.
    let second = cohort.on_message(60, Mid(3), Message::Invite { viewid: vid, manager: Mid(3) });
    let count = |effects: &[Effect]| {
        sends(effects).iter().filter(|m| matches!(m, Message::AcceptNormal { .. })).count()
    };
    assert_eq!(count(&first), 1);
    assert_eq!(count(&second), 1, "re-accepts the same viewid");
}

#[test]
fn acceptance_reports_latest_viewstamp_and_primaryship() {
    let mut primary = server_cohort(Mid(1));
    run_call_and_ack(&mut primary, aid(0)); // generate an event
    let vid = ViewId { counter: 9, manager: Mid(3) };
    let effects = primary.on_message(50, Mid(3), Message::Invite { viewid: vid, manager: Mid(3) });
    let msgs = sends(&effects);
    match msgs.iter().find(|m| matches!(m, Message::AcceptNormal { .. })) {
        Some(Message::AcceptNormal { latest, was_primary, .. }) => {
            assert!(*was_primary, "was the primary of its current view");
            assert!(latest.ts > Timestamp::ZERO, "viewstamp reflects the event");
        }
        other => panic!("expected normal acceptance, got {other:?}"),
    }
}

#[test]
fn recovered_cohort_sends_crashed_acceptance() {
    let config = Configuration::new(SERVER, vec![Mid(1), Mid(2), Mid(3)]);
    let mut peers = BTreeMap::new();
    peers.insert(SERVER, config.clone());
    let stable = ViewId { counter: 4, manager: Mid(1) };
    let mut recovered = Cohort::recover(
        CohortParams {
            cfg: CohortConfig::new(),
            mid: Mid(2),
            configuration: config,
            initial_primary: Mid(1),
            peers,
            module: Box::new(counter::CounterModule),
        },
        RecoveredState::viewid_only(stable),
    );
    recovered.start(0);
    assert!(!recovered.is_up_to_date());
    let vid = ViewId { counter: 9, manager: Mid(3) };
    let effects =
        recovered.on_message(10, Mid(3), Message::Invite { viewid: vid, manager: Mid(3) });
    let msgs = sends(&effects);
    match msgs.iter().find(|m| matches!(m, Message::AcceptCrashed { .. })) {
        Some(Message::AcceptCrashed { stable_viewid, .. }) => {
            assert_eq!(*stable_viewid, stable, "reports only its stable viewid");
        }
        other => panic!("expected crashed acceptance, got {other:?}"),
    }
}

#[test]
fn init_view_for_stale_viewid_ignored() {
    let mut cohort = server_cohort(Mid(2));
    let vid = ViewId { counter: 9, manager: Mid(3) };
    cohort.on_message(10, Mid(3), Message::Invite { viewid: vid, manager: Mid(3) });
    // An init-view for an older proposal must not start a view.
    let stale = ViewId { counter: 5, manager: Mid(1) };
    cohort.on_message(
        20,
        Mid(1),
        Message::InitView { viewid: stale, view: View::new(Mid(2), vec![Mid(1)]) },
    );
    assert_eq!(cohort.status(), Status::Underling, "still waiting for view 9");
}

#[test]
fn crashed_cohort_never_becomes_primary_via_init_view() {
    let config = Configuration::new(SERVER, vec![Mid(1), Mid(2), Mid(3)]);
    let mut peers = BTreeMap::new();
    peers.insert(SERVER, config.clone());
    let mut recovered = Cohort::recover(
        CohortParams {
            cfg: CohortConfig::new(),
            mid: Mid(2),
            configuration: config,
            initial_primary: Mid(1),
            peers,
            module: Box::new(counter::CounterModule),
        },
        RecoveredState::viewid_only(ViewId::initial(Mid(1))),
    );
    recovered.start(0);
    let vid = ViewId { counter: 9, manager: Mid(3) };
    recovered.on_message(10, Mid(3), Message::Invite { viewid: vid, manager: Mid(3) });
    // A buggy/stale manager nominates the crashed cohort as primary.
    recovered.on_message(
        20,
        Mid(3),
        Message::InitView { viewid: vid, view: View::new(Mid(2), vec![Mid(1), Mid(3)]) },
    );
    assert_ne!(recovered.status(), Status::Active, "refused: it has no state");
    assert!(!recovered.is_up_to_date());
}

// ----------------------------------------------------------------------
// buffer replication details
// ----------------------------------------------------------------------

#[test]
fn backup_applies_records_in_order_and_acks() {
    let mut primary = server_cohort(Mid(1));
    let mut backup = server_cohort(Mid(2));
    let a = aid(0);
    let effects = primary.on_message(10, CLIENT_MID, call_msg(&primary, a, 0));
    // Forward the BufferSend to the backup.
    let buffer_msg = sends(&effects)
        .into_iter()
        .find(|m| matches!(m, Message::BufferSend { .. }))
        .expect("streams to backups")
        .clone();
    let effects = backup.on_message(12, Mid(1), buffer_msg);
    let msgs = sends(&effects);
    match msgs.iter().find(|m| matches!(m, Message::BufferAck { .. })) {
        Some(Message::BufferAck { upto, .. }) => assert_eq!(*upto, Timestamp(1)),
        other => panic!("expected ack, got {other:?}"),
    }
    assert_eq!(backup.gstate().pending_calls(a).len(), 1, "record stored");
}

#[test]
fn backup_ignores_gapped_records() {
    let mut primary = server_cohort(Mid(1));
    let mut backup = server_cohort(Mid(2));
    // Produce two events at the primary.
    primary.on_message(10, CLIENT_MID, call_msg(&primary, aid(0), 0));
    let effects = primary.on_message(20, CLIENT_MID, call_msg(&primary, aid(1), 0));
    // Deliver only a slice starting at ts 2 (simulate a lost first
    // send) — the backup must not apply past the gap.
    let msg = sends(&effects)
        .into_iter()
        .filter_map(|m| match m {
            Message::BufferSend { viewid, from, records } => {
                let later: Vec<_> =
                    records.iter().filter(|r| r.ts() > Timestamp(1)).cloned().collect();
                (!later.is_empty()).then_some(Message::BufferSend {
                    viewid: *viewid,
                    from: *from,
                    records: later.into(),
                })
            }
            _ => None,
        })
        .next();
    if let Some(msg) = msg {
        let effects = backup.on_message(25, Mid(1), msg);
        match sends(&effects).iter().find(|m| matches!(m, Message::BufferAck { .. })) {
            Some(Message::BufferAck { upto, .. }) => {
                assert_eq!(*upto, Timestamp::ZERO, "nothing applied past the gap")
            }
            other => panic!("expected ack, got {other:?}"),
        }
        assert!(backup.gstate().pending_calls(aid(1)).is_empty());
    }
}

#[test]
fn backup_ignores_buffer_from_non_primary() {
    // The model is fail-stop, not Byzantine (Section 1), so the
    // message's embedded origin is trusted — but a buffer stream whose
    // *origin* is not the view's primary must be ignored (e.g. a stale
    // primary of an older incarnation of the same viewid is impossible,
    // but a confused cohort is cheap to guard against).
    let mut primary = server_cohort(Mid(1));
    let mut backup = server_cohort(Mid(2));
    let effects = primary.on_message(10, CLIENT_MID, call_msg(&primary, aid(0), 0));
    let forged = sends(&effects)
        .into_iter()
        .find_map(|m| match m {
            Message::BufferSend { viewid, records, .. } => Some(Message::BufferSend {
                viewid: *viewid,
                from: Mid(3), // claims to be a non-primary cohort
                records: records.clone(),
            }),
            _ => None,
        })
        .expect("streams");
    let effects = backup.on_message(12, Mid(3), forged);
    assert!(sends(&effects).is_empty());
    assert!(backup.gstate().pending_calls(aid(0)).is_empty());
}

// ----------------------------------------------------------------------
// lock conflicts: parking, retry, timeout
// ----------------------------------------------------------------------

#[test]
fn conflicting_call_parks_and_runs_after_commit() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let b = aid(1);
    // Transaction A takes the write lock on counter 0.
    let vs = run_call_and_ack(&mut primary, a);
    // Transaction B's conflicting call parks (no reply yet).
    let effects = primary.on_message(20, CLIENT_MID, call_msg(&primary, b, 0));
    assert!(
        !sends(&effects).iter().any(|m| matches!(m, Message::CallReply { .. })),
        "conflicting call must not be answered yet"
    );
    // Commit A: B's parked call runs and replies.
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    primary.on_message(30, CLIENT_MID, Message::Prepare { aid: a, pset, coordinator: CLIENT_MID });
    let effects =
        primary.on_message(40, CLIENT_MID, Message::Commit { aid: a, coordinator: CLIENT_MID });
    let reply = sends(&effects).iter().find_map(|m| match m {
        Message::CallReply { call_id, outcome: CallOutcome::Ok { result, .. } }
            if call_id.aid == b =>
        {
            Some(counter::decode_value(result).unwrap())
        }
        _ => None,
    });
    assert_eq!(reply, Some(2), "parked call ran after the lock was released and saw A's write");
}

#[test]
fn resent_call_parked_twice_runs_once() {
    // B's call parks behind A's write lock, and B's client re-sends it
    // (its call retry timer fired first): the same call id is parked
    // twice. When A commits, the call must run once; the second copy is
    // answered from the first one's record. Running both would leave
    // two records, the second built on the first's tentative version,
    // and B's commit would install the increment twice.
    let mut primary = server_cohort(Mid(1));
    let (a, b) = (aid(0), aid(1));
    let vs = run_call_and_ack(&mut primary, a);
    primary.on_message(20, CLIENT_MID, call_msg(&primary, b, 0));
    primary.on_message(25, CLIENT_MID, call_msg(&primary, b, 0));
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    primary.on_message(30, CLIENT_MID, Message::Prepare { aid: a, pset, coordinator: CLIENT_MID });
    let effects =
        primary.on_message(40, CLIENT_MID, Message::Commit { aid: a, coordinator: CLIENT_MID });
    let replies: Vec<u64> = sends(&effects)
        .iter()
        .filter_map(|m| match m {
            Message::CallReply { call_id, outcome: CallOutcome::Ok { result, .. } }
                if call_id.aid == b =>
            {
                Some(counter::decode_value(result).unwrap())
            }
            _ => None,
        })
        .collect();
    assert_eq!(replies, vec![2, 2], "both copies answered with the one execution's result");
    assert_eq!(primary.gstate().pending_calls(b).len(), 1, "executed once");
    let vs = primary.gstate().pending_calls(b)[0].vs;
    for m in [Mid(2), Mid(3)] {
        primary.on_message(
            45,
            m,
            Message::BufferAck { viewid: primary.cur_viewid(), from: m, upto: vs.ts },
        );
    }
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    primary.on_message(50, CLIENT_MID, Message::Prepare { aid: b, pset, coordinator: CLIENT_MID });
    primary.on_message(60, CLIENT_MID, Message::Commit { aid: b, coordinator: CLIENT_MID });
    let counter = primary.gstate().object(ObjectId(0)).unwrap();
    assert_eq!(counter::decode_value(counter.value.as_bytes()), Ok(2), "two increments");
    assert_eq!(counter.version, 2, "two installs");
}

#[test]
fn conflicting_call_parks_and_runs_after_abort() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let b = aid(1);
    run_call_and_ack(&mut primary, a);
    primary.on_message(20, CLIENT_MID, call_msg(&primary, b, 0));
    // Abort A: B's parked call runs against the *unchanged* base value.
    let effects = primary.on_message(30, CLIENT_MID, Message::Abort { aid: a });
    let reply = sends(&effects).iter().find_map(|m| match m {
        Message::CallReply { call_id, outcome: CallOutcome::Ok { result, .. } }
            if call_id.aid == b =>
        {
            Some(counter::decode_value(result).unwrap())
        }
        _ => None,
    });
    assert_eq!(reply, Some(1), "A's tentative write was discarded");
}

#[test]
fn lock_wait_timeout_refuses_the_parked_call() {
    use vsr_core::cohort::Timer;
    use vsr_core::messages::CallRefusal;
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let b = aid(1);
    run_call_and_ack(&mut primary, a);
    let effects = primary.on_message(20, CLIENT_MID, call_msg(&primary, b, 0));
    // The park armed a LockWait timer; fire it.
    let timer = effects
        .iter()
        .find_map(|e| match e {
            Effect::SetTimer { timer: t @ Timer::LockWait { .. }, .. } => Some(t.clone()),
            _ => None,
        })
        .expect("lock-wait timer armed");
    // The client re-sends the call while it waits: a second copy parks.
    primary.on_message(30, CLIENT_MID, call_msg(&primary, b, 0));
    let effects = primary.on_timer(500, timer);
    let refused = sends(&effects)
        .iter()
        .filter(|m| {
            matches!(
                m,
                Message::CallReply { outcome: CallOutcome::Refused(CallRefusal::LockTimeout), .. }
            )
        })
        .count();
    assert_eq!(refused, 1, "parked call refused once after the lock-wait timeout");
    // A later release must NOT run the (now-refused) call.
    let effects = primary.on_message(600, CLIENT_MID, Message::Abort { aid: a });
    assert!(
        !sends(&effects)
            .iter()
            .any(|m| matches!(m, Message::CallReply { call_id, .. } if call_id.aid == b)),
        "refused call is gone from the park list, re-sent copy and all"
    );
    assert!(primary.gstate().pending_calls(b).is_empty(), "never executed");
}

// ----------------------------------------------------------------------
// failure detection drives the view change
// ----------------------------------------------------------------------

#[test]
fn silent_primary_makes_backup_invite() {
    use vsr_core::cohort::Timer;
    let mut backup = server_cohort(Mid(2));
    // Heartbeats from the primary keep suspicion away.
    let mut now = 0;
    for _ in 0..5 {
        now += 20;
        backup.on_message(
            now,
            Mid(1),
            Message::ImAlive { from: Mid(1), viewid: backup.cur_viewid() },
        );
        backup.on_message(
            now,
            Mid(3),
            Message::ImAlive { from: Mid(3), viewid: backup.cur_viewid() },
        );
        let effects = backup.on_timer(now, Timer::Heartbeat);
        assert!(
            !effects.iter().any(|e| matches!(e, Effect::Send { msg: Message::Invite { .. }, .. })),
            "no suspicion while everyone heartbeats"
        );
    }
    // The primary goes silent; keep hearing from the other backup (so
    // deference to a live higher-priority cohort applies for a couple of
    // heartbeats — Mid(2) has no live lower mid once Mid(1) is silent).
    let mut invited = false;
    for _ in 0..10 {
        now += 20;
        backup.on_message(
            now,
            Mid(3),
            Message::ImAlive { from: Mid(3), viewid: backup.cur_viewid() },
        );
        let effects = backup.on_timer(now, Timer::Heartbeat);
        if effects.iter().any(|e| matches!(e, Effect::Send { msg: Message::Invite { .. }, .. })) {
            invited = true;
            break;
        }
    }
    assert!(invited, "silence beyond the suspect timeout triggers a view change");
    assert_eq!(backup.status(), Status::ViewManager);
}

#[test]
fn higher_priority_backup_manages_first() {
    use vsr_core::cohort::Timer;
    // Mid(3) defers to the live, lower-mid backup Mid(2) for a few
    // heartbeats after the primary goes silent.
    let mut b3 = server_cohort(Mid(3));
    let mut now = 0;
    for _ in 0..5 {
        now += 20;
        b3.on_message(now, Mid(1), Message::ImAlive { from: Mid(1), viewid: b3.cur_viewid() });
        b3.on_message(now, Mid(2), Message::ImAlive { from: Mid(2), viewid: b3.cur_viewid() });
        b3.on_timer(now, Timer::Heartbeat);
    }
    // Primary silent; Mid(2) still alive.
    let mut deferred_rounds = 0;
    loop {
        now += 20;
        b3.on_message(now, Mid(2), Message::ImAlive { from: Mid(2), viewid: b3.cur_viewid() });
        let effects = b3.on_timer(now, Timer::Heartbeat);
        if b3.status() == Status::ViewManager {
            break;
        }
        if now > 120 + 100 {
            deferred_rounds += 1;
        }
        let _ = effects;
        if deferred_rounds > 10 {
            panic!("never managed");
        }
    }
    assert!(deferred_rounds >= 1, "Mid(3) deferred at least one heartbeat to the live Mid(2)");
}

// ----------------------------------------------------------------------
// Section 4.1 guarantees across a view change
// ----------------------------------------------------------------------

/// Drive the primary through a view change that keeps it primary:
/// a backup invites with a higher viewid, the primary accepts, and the
/// manager sends init-view back.
fn same_primary_view_change(primary: &mut Cohort, now: u64) -> ViewId {
    let vid = ViewId { counter: 5, manager: Mid(2) };
    let effects = primary.on_message(now, Mid(2), Message::Invite { viewid: vid, manager: Mid(2) });
    assert!(
        sends(&effects).iter().any(|m| matches!(m, Message::AcceptNormal { .. })),
        "primary accepted"
    );
    primary.on_message(
        now + 2,
        Mid(2),
        Message::InitView { viewid: vid, view: View::new(Mid(1), vec![Mid(2), Mid(3)]) },
    );
    assert!(primary.is_active_primary());
    assert_eq!(primary.cur_viewid(), vid);
    vid
}

#[test]
fn prepared_in_old_view_commits_in_new_view() {
    // "Transactions that prepared in the old view will be able to
    // commit" (Section 4.1). The server primary votes yes, the view
    // changes (same primary), and the commit arriving in the new view
    // installs the transaction.
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let vs = run_call_and_ack(&mut primary, a);
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    let effects = primary.on_message(
        20,
        CLIENT_MID,
        Message::Prepare { aid: a, pset, coordinator: CLIENT_MID },
    );
    assert!(sends(&effects).iter().any(|m| matches!(m, Message::PrepareOk { .. })));

    same_primary_view_change(&mut primary, 30);

    // The commit arrives addressed to the new view's primary. It
    // installs immediately; the done message follows once the committed
    // record reaches a sub-majority of the *new* view (Figure 3 forces
    // it), so deliver a backup acknowledgement.
    let effects =
        primary.on_message(40, CLIENT_MID, Message::Commit { aid: a, coordinator: CLIENT_MID });
    assert!(
        effects.iter().any(|e| matches!(e, Effect::Observe(Observation::TxnCommitted { .. }))),
        "committed in the new view: {effects:?}"
    );
    assert_finished(&primary, a);
    let new_ts = primary.history().ts_for(primary.cur_viewid()).unwrap();
    let effects = primary.on_message(
        45,
        Mid(2),
        Message::BufferAck { viewid: primary.cur_viewid(), from: Mid(2), upto: new_ts },
    );
    assert!(
        sends(&effects).iter().any(|m| matches!(m, Message::CommitDone { .. })),
        "done message sent once the committed record is at a sub-majority"
    );
    // The write survived: read it back through a fresh transaction.
    let probe = Aid { group: GroupId(9), view: ViewId::initial(CLIENT_MID), seq: 99 };
    let op = counter::read(SERVER, 0);
    let effects = primary.on_message(
        50,
        CLIENT_MID,
        Message::Call {
            viewid: primary.cur_viewid(),
            call_id: CallId { aid: probe, seq: 0 },
            proc: op.proc,
            args: op.args,
        },
    );
    let value = sends(&effects)
        .iter()
        .find_map(|m| match m {
            Message::CallReply { outcome: CallOutcome::Ok { result, .. }, .. } => {
                Some(counter::decode_value(result).unwrap())
            }
            _ => None,
        })
        .expect("read replied");
    assert_eq!(value, 1, "the write survived");
}

#[test]
fn unprepared_calls_survive_same_primary_view_change() {
    // "If the same cohort is the primary both before and after the view
    // change, then no user work is lost in the change": a transaction
    // whose calls completed before the change can still prepare after
    // it, because the old-view viewstamps remain covered by the history.
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let vs = run_call_and_ack(&mut primary, a);
    same_primary_view_change(&mut primary, 30);

    let mut pset = PSet::new();
    pset.insert(SERVER, vs); // old-view viewstamp
    let effects = primary.on_message(
        40,
        CLIENT_MID,
        Message::Prepare { aid: a, pset, coordinator: CLIENT_MID },
    );
    assert!(
        sends(&effects).iter().any(|m| matches!(m, Message::PrepareOk { .. })),
        "old-view call events remain compatible: {effects:?}"
    );
}

#[test]
fn old_view_call_message_rejected_after_view_change() {
    // A call carrying the old viewid is rejected with the new view info
    // (Figure 3 step 1) — and only re-sent with the new viewid does it
    // execute.
    let mut primary = server_cohort(Mid(1));
    let old_vid = primary.cur_viewid();
    same_primary_view_change(&mut primary, 10);
    let a = aid(0);
    let op = counter::incr(SERVER, 0, 1);
    let effects = primary.on_message(
        20,
        CLIENT_MID,
        Message::Call {
            viewid: old_vid,
            call_id: CallId { aid: a, seq: 0 },
            proc: op.proc.clone(),
            args: op.args.clone(),
        },
    );
    match sends(&effects).first() {
        Some(Message::CallReject { newer: Some((vid, _)), .. }) => {
            assert_eq!(*vid, primary.cur_viewid());
        }
        other => panic!("expected rejection with new view, got {other:?}"),
    }
    // Re-send with the new viewid: executes.
    let effects = primary.on_message(
        25,
        CLIENT_MID,
        Message::Call {
            viewid: primary.cur_viewid(),
            call_id: CallId { aid: a, seq: 0 },
            proc: op.proc,
            args: op.args,
        },
    );
    assert!(sends(&effects)
        .iter()
        .any(|m| matches!(m, Message::CallReply { outcome: CallOutcome::Ok { .. }, .. })));
}

// ----------------------------------------------------------------------
// DESIGN §14: late messages for a transaction finished here
// ----------------------------------------------------------------------

/// Call, prepare and commit one increment of object 0 for `a`; returns
/// the pset the prepare carried.
fn commit_increment(primary: &mut Cohort, a: Aid) -> PSet {
    let vs = run_call_and_ack(primary, a);
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    primary.on_message(
        20,
        CLIENT_MID,
        Message::Prepare { aid: a, pset: pset.clone(), coordinator: CLIENT_MID },
    );
    primary.on_message(30, CLIENT_MID, Message::Commit { aid: a, coordinator: CLIENT_MID });
    assert_finished(primary, a);
    pset
}

fn records_written(effects: &[Effect]) -> usize {
    effects
        .iter()
        .filter(|e| matches!(e, Effect::Persist(vsr_core::durable::DurableEvent::Record(_))))
        .count()
}

fn version(cohort: &Cohort) -> Option<u64> {
    cohort.gstate().object(ObjectId(0)).map(|o| o.version)
}

#[test]
fn late_duplicate_call_of_committed_transaction_does_not_execute() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    commit_increment(&mut primary, a);
    assert_eq!(version(&primary), Some(1));
    // The network delivers the call again: same viewid, same call id.
    let effects = primary.on_message(40, CLIENT_MID, call_msg(&primary, a, 0));
    assert!(primary.gstate().pending_calls(a).is_empty(), "not executed: {effects:?}");
    assert!(!primary.locks().holds_any(a), "no lock left behind");
    assert_eq!(records_written(&effects), 0);
    // A duplicate commit then finds nothing to install a second time.
    let effects =
        primary.on_message(50, CLIENT_MID, Message::Commit { aid: a, coordinator: CLIENT_MID });
    assert!(sends(&effects).iter().any(|m| matches!(m, Message::CommitDone { .. })));
    assert_eq!(records_written(&effects), 0);
    assert_eq!(version(&primary), Some(1), "no double install");
}

#[test]
fn duplicate_commit_for_finished_transaction_writes_no_record() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    commit_increment(&mut primary, a);
    let effects =
        primary.on_message(40, CLIENT_MID, Message::Commit { aid: a, coordinator: CLIENT_MID });
    assert!(sends(&effects).iter().any(|m| matches!(m, Message::CommitDone { .. })));
    assert_eq!(records_written(&effects), 0, "acknowledged without a record: {effects:?}");
    assert_finished(&primary, a);
}

#[test]
fn duplicate_prepare_for_finished_transaction_writes_no_record() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let pset = commit_increment(&mut primary, a);
    let effects = primary.on_message(
        40,
        CLIENT_MID,
        Message::Prepare { aid: a, pset, coordinator: CLIENT_MID },
    );
    assert!(
        sends(&effects).iter().any(|m| matches!(m, Message::PrepareOk { read_only: true, .. })),
        "holds nothing for it: a read-only vote: {effects:?}"
    );
    assert_eq!(records_written(&effects), 0, "no second committed record");
    assert_eq!(version(&primary), Some(1));
    // Compatibility still comes first: a pset naming an event this
    // cohort never had is refused, finished or not.
    let mut lost = PSet::new();
    lost.insert(SERVER, Viewstamp::new(ViewId { counter: 7, manager: Mid(9) }, Timestamp(3)));
    let effects = primary.on_message(
        50,
        CLIENT_MID,
        Message::Prepare { aid: a, pset: lost, coordinator: CLIENT_MID },
    );
    assert!(sends(&effects).iter().any(|m| matches!(m, Message::PrepareRefuse { .. })));
    assert_eq!(records_written(&effects), 0);
}

#[test]
fn abort_query_and_query_reply_for_finished_transaction_write_no_record() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    commit_increment(&mut primary, a);
    let late = [
        Message::Abort { aid: a },
        Message::QueryReply { aid: a, outcome: QueryOutcome::Committed },
        Message::QueryReply { aid: a, outcome: QueryOutcome::Aborted },
        Message::Query { aid: a, reply_to: Mid(7) },
    ];
    for (i, msg) in late.into_iter().enumerate() {
        let effects = primary.on_message(40 + i as u64, Mid(7), msg.clone());
        assert_eq!(records_written(&effects), 0, "{msg:?} wrote a record: {effects:?}");
        assert!(sends(&effects).is_empty(), "{msg:?} needs no answer: {effects:?}");
    }
    assert_eq!(version(&primary), Some(1));
    assert_finished(&primary, a);
}

#[test]
fn participant_abort_retires_the_status_and_blocks_the_late_call() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    run_call_and_ack(&mut primary, a);
    let effects = primary.on_message(20, CLIENT_MID, Message::Abort { aid: a });
    assert!(effects.iter().any(|e| matches!(e, Effect::Observe(Observation::TxnAborted { .. }))));
    assert_finished(&primary, a);
    let effects = primary.on_message(30, CLIENT_MID, call_msg(&primary, a, 0));
    assert!(primary.gstate().pending_calls(a).is_empty(), "not executed: {effects:?}");
    assert_eq!(version(&primary), None, "the aborted increment never installed");
}

#[test]
fn call_below_a_coordinator_horizon_does_not_execute() {
    let mut primary = server_cohort(Mid(1));
    let effects = primary.on_message(10, CLIENT_MID, Message::Horizon { done_below: aid(5) });
    assert_eq!(records_written(&effects), 1, "the horizon is logged");
    assert_eq!(primary.gstate().horizon(GroupId(9)), Some(aid(5)));
    // aid(3) never reached this cohort, but its coordinator is done
    // with it: a late call for it must not run.
    let effects = primary.on_message(20, CLIENT_MID, call_msg(&primary, aid(3), 0));
    assert!(primary.gstate().pending_calls(aid(3)).is_empty(), "not executed: {effects:?}");
    // The horizon's own aid may still be running and executes.
    primary.on_message(30, CLIENT_MID, call_msg(&primary, aid(5), 0));
    assert_eq!(primary.gstate().pending_calls(aid(5)).len(), 1);
    // A horizon that does not move up writes nothing.
    let effects = primary.on_message(40, CLIENT_MID, Message::Horizon { done_below: aid(4) });
    assert_eq!(records_written(&effects), 0);
}

#[test]
fn horizon_decides_the_transactions_pending_below_it_before_it_is_logged() {
    // Nothing else will ever write an outcome for records still pending
    // below a coordinator's horizon. A transaction that wrote aborted
    // (its abort message was lost); a read-only one (of counter 1)
    // commits, as it may be a read-only vote whose committed record a
    // crash lost.
    let mut primary = server_cohort(Mid(1));
    let reader = aid(1);
    let read = counter::read(SERVER, 1);
    primary.on_message(
        5,
        CLIENT_MID,
        Message::Call {
            viewid: primary.cur_viewid(),
            call_id: CallId { aid: reader, seq: 0 },
            proc: read.proc,
            args: read.args,
        },
    );
    let a = aid(2);
    let vs = run_call_and_ack(&mut primary, a);
    assert!(primary.locks().holds_any(reader) && primary.locks().holds_any(a));
    let effects = primary.on_message(20, CLIENT_MID, Message::Horizon { done_below: aid(3) });
    let kinds: Vec<&str> = effects
        .iter()
        .filter_map(|e| match e {
            Effect::Persist(vsr_core::durable::DurableEvent::Record(r)) => Some(r.kind.name()),
            _ => None,
        })
        .collect();
    assert_eq!(kinds, ["committed", "aborted", "horizon"], "{effects:?}");
    assert_finished(&primary, reader);
    assert_finished(&primary, a);
    assert_eq!(primary.locks().locked_objects(), 0);
    // A late one-phase commit for it never hears "committed".
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    let mut effects = primary.on_message(30, CLIENT_MID, prepare_commit(a, pset));
    effects.extend(ack_all(&mut primary, 31));
    assert_eq!(records_written(&effects), 0, "{effects:?}");
    assert!(
        !sends(&effects).iter().any(|m| matches!(m, Message::CommitDone { .. })),
        "{effects:?}"
    );
    assert_eq!(version(&primary), None, "the aborted increment never installed");
}

#[test]
fn serial_commits_keep_one_finished_run_and_the_horizon_absorbs_it() {
    let mut primary = server_cohort(Mid(1));
    for seq in 0..5 {
        commit_increment(&mut primary, aid(seq));
    }
    assert_eq!(primary.gstate().status_count(), 0);
    assert_eq!(primary.gstate().finished_runs(), 1, "consecutive aids share one run");
    // A horizon at or past the run replaces it; later commits move the
    // horizon itself and leave no run at all.
    primary.on_message(40, CLIENT_MID, Message::Horizon { done_below: aid(5) });
    assert_eq!(primary.gstate().finished_runs(), 0);
    commit_increment(&mut primary, aid(5));
    assert_eq!(primary.gstate().finished_runs(), 0);
    assert_eq!(primary.gstate().horizon(GroupId(9)), Some(aid(6)));
}

#[test]
fn a_lasting_gap_between_finished_runs_is_asked_about_and_closed() {
    use vsr_core::cohort::Timer;
    // A server cohort that can address the coordinator group.
    let client = Configuration::new(GroupId(9), vec![CLIENT_MID]);
    let config = Configuration::new(SERVER, vec![Mid(1), Mid(2), Mid(3)]);
    let mut cfg = CohortConfig::new();
    cfg.buffer_flush_interval = 0;
    let mut primary = Cohort::new(CohortParams {
        cfg: cfg.clone(),
        mid: Mid(1),
        configuration: config.clone(),
        initial_primary: Mid(1),
        peers: [(SERVER, config), (GroupId(9), client)].into_iter().collect(),
        module: Box::new(counter::CounterModule),
    });
    primary.start(0);
    // aid(1) never came here: two runs with a gap between them.
    commit_increment(&mut primary, aid(0));
    commit_increment(&mut primary, aid(2));
    assert_eq!(primary.gstate().finished_runs(), 2);
    assert_eq!(primary.gstate().first_gap(GroupId(9)), Some(aid(1)));
    // Heartbeats (with the backups alive) notice the gap, and ask once
    // it has lasted longer than a stale transaction would.
    let mut asked_at = None;
    let mut now = 30;
    while asked_at.is_none() && now < 30 + 4 * cfg.stale_txn_timeout {
        now += cfg.heartbeat_interval;
        for b in [Mid(2), Mid(3)] {
            primary.on_message(now, b, Message::ImAlive { from: b, viewid: primary.cur_viewid() });
        }
        let effects = primary.on_timer(now, Timer::Heartbeat);
        if sends(&effects)
            .iter()
            .any(|m| matches!(m, Message::Query { aid: q, .. } if *q == aid(1)))
        {
            asked_at = Some(now);
        }
    }
    let asked_at = asked_at.expect("the gap was asked about");
    assert!(asked_at > 30 + cfg.stale_txn_timeout, "not before the gap is stale");
    // The coordinator's primary answers with its horizon.
    let effects = primary.on_message(now, CLIENT_MID, Message::Horizon { done_below: aid(3) });
    assert_eq!(records_written(&effects), 1);
    assert_eq!(primary.gstate().finished_runs(), 0, "the runs collapsed into the horizon");
    assert!(primary.gstate().is_finished(aid(1)));
    assert_eq!(primary.gstate().first_gap(GroupId(9)), None);
}

#[test]
fn coordinator_primary_answers_a_query_below_its_horizon_with_the_horizon() {
    let client_group = GroupId(9);
    let config = Configuration::new(client_group, vec![Mid(100), Mid(101), Mid(102)]);
    let server = Configuration::new(SERVER, vec![Mid(1), Mid(2), Mid(3)]);
    let mut coord = Cohort::new(CohortParams {
        cfg: CohortConfig::new(),
        mid: Mid(100),
        configuration: config.clone(),
        initial_primary: Mid(100),
        peers: [(client_group, config), (SERVER, server)].into_iter().collect(),
        module: Box::new(NullModule),
    });
    coord.start(0);
    // A transaction with no calls commits at once; the next one runs.
    coord.begin_transaction(10, 1, Vec::new());
    coord.begin_transaction(11, 2, vec![counter::incr(SERVER, 0, 1)]);
    let done = Aid { group: client_group, view: coord.cur_viewid(), seq: 0 };
    let running = Aid { seq: 1, ..done };
    let effects = coord.on_message(20, Mid(1), Message::Query { aid: done, reply_to: Mid(1) });
    assert!(
        sends(&effects)
            .iter()
            .any(|m| matches!(m, Message::Horizon { done_below } if *done_below == running)),
        "the horizon stops at the running transaction: {effects:?}"
    );
    let effects = coord.on_message(21, Mid(1), Message::Query { aid: running, reply_to: Mid(1) });
    assert!(
        !sends(&effects).iter().any(|m| matches!(m, Message::Horizon { .. })),
        "nothing below the horizon was asked about: {effects:?}"
    );
}

// ----------------------------------------------------------------------
// One-phase commit at the only participant (DESIGN §14)
// ----------------------------------------------------------------------

fn prepare_commit(a: Aid, pset: PSet) -> Message {
    Message::PrepareCommit { aid: a, pset, coordinator: CLIENT_MID }
}

/// Ack everything the primary has appended so far from both backups.
fn ack_all(primary: &mut Cohort, now: u64) -> Vec<Effect> {
    let upto = primary.history().latest().expect("a history").ts;
    let mut effects = Vec::new();
    for b in [Mid(2), Mid(3)] {
        let viewid = primary.cur_viewid();
        effects.extend(primary.on_message(now, b, Message::BufferAck { viewid, from: b, upto }));
    }
    effects
}

#[test]
fn one_phase_commit_answers_only_once_its_record_is_forced() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let vs = run_call_and_ack(&mut primary, a);
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    let effects = primary.on_message(20, CLIENT_MID, prepare_commit(a, pset.clone()));
    assert_eq!(records_written(&effects), 1, "one committed record");
    assert!(!sends(&effects).iter().any(|m| matches!(m, Message::CommitDone { .. })));
    assert!(primary.locks().holds_any(a), "locks held until the force completes");
    // A duplicate before the force completes is answered with it, not
    // sooner, and writes nothing.
    let effects = primary.on_message(21, CLIENT_MID, prepare_commit(a, pset.clone()));
    assert_eq!(records_written(&effects), 0);
    assert!(!sends(&effects).iter().any(|m| matches!(m, Message::CommitDone { .. })));
    // A late abort never undoes the decision.
    let effects = primary.on_message(22, CLIENT_MID, Message::Abort { aid: a });
    assert_eq!(records_written(&effects), 0, "no aborted record: {effects:?}");
    let effects = ack_all(&mut primary, 25);
    assert!(sends(&effects).iter().any(|m| matches!(m, Message::CommitDone { .. })));
    assert!(!primary.locks().holds_any(a), "locks released at the commit point");
    assert_eq!(version(&primary), Some(1));
    assert!(primary.gstate().one_phase_committed(a));
    assert!(primary.gstate().status(a).is_none(), "no status kept");
    // A duplicate after the commit hears "committed" again, without a
    // second record.
    let effects = primary.on_message(30, CLIENT_MID, prepare_commit(a, pset));
    assert_eq!(records_written(&effects), 0);
    assert!(sends(&effects).iter().any(|m| matches!(m, Message::CommitDone { .. })));
    assert_eq!(version(&primary), Some(1), "no double install");
}

#[test]
fn prepare_commit_for_an_aborted_transaction_never_hears_committed() {
    // The finished set does not say which outcome a transaction had, so
    // a participant must never answer a one-phase commit from it alone.
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let vs = run_call_and_ack(&mut primary, a);
    primary.on_message(20, CLIENT_MID, Message::Abort { aid: a });
    assert_finished(&primary, a);
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    let mut effects = primary.on_message(30, CLIENT_MID, prepare_commit(a, pset));
    effects.extend(ack_all(&mut primary, 31));
    assert_eq!(records_written(&effects), 0, "{effects:?}");
    assert!(
        !sends(&effects).iter().any(|m| matches!(m, Message::CommitDone { .. })),
        "an aborted transaction reported committed: {effects:?}"
    );
    assert_eq!(version(&primary), None, "nothing installed");
}

#[test]
fn prepare_commit_with_lost_records_refuses_every_time() {
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    run_call_and_ack(&mut primary, a);
    let mut pset = PSet::new();
    pset.insert(SERVER, Viewstamp::new(ViewId { counter: 7, manager: Mid(9) }, Timestamp(3)));
    for now in [20, 30] {
        let effects = primary.on_message(now, CLIENT_MID, prepare_commit(a, pset.clone()));
        assert!(sends(&effects).iter().any(|m| matches!(m, Message::PrepareRefuse { .. })));
        assert!(!primary.gstate().one_phase_committed(a));
    }
    assert_finished(&primary, a);
}

#[test]
fn one_phase_read_votes_read_only_once_its_call_records_are_forced() {
    // Figure 3's read-only vote in answer to a one-phase commit: with the
    // read's call record at a sub-majority the participant votes at once
    // and its committed record follows unforced; the coordinator's forced
    // committing record is then the commit point.
    let mut primary = server_cohort(Mid(1));
    let a = aid(0);
    let op = counter::read(SERVER, 0);
    let effects = primary.on_message(
        10,
        CLIENT_MID,
        Message::Call {
            viewid: primary.cur_viewid(),
            call_id: CallId { aid: a, seq: 0 },
            proc: op.proc,
            args: op.args,
        },
    );
    let vs = sends(&effects)
        .iter()
        .find_map(|m| match m {
            Message::CallReply { outcome: CallOutcome::Ok { pset, .. }, .. } => pset.vs_max(SERVER),
            _ => None,
        })
        .expect("replied");
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    let read_only_vote = |effects: &[Effect]| {
        sends(effects).iter().any(|m| matches!(m, Message::PrepareOk { read_only: true, .. }))
    };
    // Not yet at a sub-majority: no answer.
    let effects = primary.on_message(11, CLIENT_MID, prepare_commit(a, pset.clone()));
    assert!(!read_only_vote(&effects));
    assert_eq!(records_written(&effects), 0, "nothing appended before the answer");
    let mut effects = Vec::new();
    for b in [Mid(2), Mid(3)] {
        effects.extend(primary.on_message(
            12,
            b,
            Message::BufferAck { viewid: primary.cur_viewid(), from: b, upto: vs.ts },
        ));
    }
    assert!(read_only_vote(&effects), "{effects:?}");
    assert!(!sends(&effects).iter().any(|m| matches!(m, Message::CommitDone { .. })));
    assert_eq!(records_written(&effects), 1, "the committed record, unforced");
    assert!(!primary.locks().holds_any(a), "locks released");
    assert!(primary.gstate().one_phase_committed(a));
    // A duplicate after the record is durable hears "committed", and
    // writes nothing.
    let mut effects = primary.on_message(20, CLIENT_MID, prepare_commit(a, pset));
    effects.extend(ack_all(&mut primary, 21));
    assert!(sends(&effects).iter().any(|m| matches!(m, Message::CommitDone { .. })));
    assert_eq!(records_written(&effects), 0);
}

//! Unit tests driving the unreplicated client agent (Section 3.5)
//! directly with messages — no network, no cohorts.

use std::collections::BTreeMap;
use vsr_app::counter;
use vsr_core::agent::ClientAgent;
use vsr_core::cohort::{call_op_index, AbortReason, CallOp, Effect, Timer, TxnOutcome};
use vsr_core::config::CohortConfig;
use vsr_core::messages::{CallOutcome, Message};
use vsr_core::pset::PSet;
use vsr_core::types::{Aid, CallId, GroupId, Mid, Timestamp, ViewId, Viewstamp};
use vsr_core::view::Configuration;

const COORD: GroupId = GroupId(1);
const SERVER: GroupId = GroupId(2);
const AGENT_MID: Mid = Mid(50);
const COORD_PRIMARY: Mid = Mid(10);
const SERVER_PRIMARY: Mid = Mid(1);

fn agent() -> ClientAgent {
    let mut peers = BTreeMap::new();
    peers.insert(COORD, Configuration::new(COORD, vec![Mid(10), Mid(11), Mid(12)]));
    peers.insert(SERVER, Configuration::new(SERVER, vec![Mid(1), Mid(2), Mid(3)]));
    ClientAgent::new(CohortConfig::new(), AGENT_MID, COORD, peers)
}

fn test_aid() -> Aid {
    Aid { group: COORD, view: ViewId::initial(COORD_PRIMARY), seq: 0 }
}

fn sends(effects: &[Effect]) -> Vec<(Mid, &Message)> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send { to, msg } => Some((*to, msg)),
            _ => None,
        })
        .collect()
}

fn server_vs() -> Viewstamp {
    Viewstamp::new(ViewId::initial(SERVER_PRIMARY), Timestamp(1))
}

/// Walk an agent transaction to the commit-delegation step.
fn drive_to_commit(agent: &mut ClientAgent, ops: Vec<CallOp>) -> (u64, Aid) {
    let effects = agent.begin_transaction(0, 7, ops.clone());
    assert!(
        sends(&effects)
            .iter()
            .any(|(to, m)| *to == COORD_PRIMARY && matches!(m, Message::ClientBegin { .. })),
        "begin sent to the coordinator primary"
    );
    let aid = test_aid();
    let effects = agent.on_message(5, COORD_PRIMARY, Message::ClientBeginAck { req: 7, aid });
    // One call per op, sequentially; answer each.
    let mut remaining = ops.len();
    let mut effects = effects;
    while remaining > 0 {
        let call_id = sends(&effects)
            .iter()
            .find_map(|(to, m)| match m {
                Message::Call { call_id, .. } if *to == SERVER_PRIMARY => Some(*call_id),
                _ => None,
            })
            .expect("call sent");
        let mut pset = PSet::new();
        pset.insert(SERVER, server_vs());
        effects = agent.on_message(
            10,
            SERVER_PRIMARY,
            Message::CallReply {
                call_id,
                outcome: CallOutcome::Ok { result: vec![1, 0, 0, 0, 0, 0, 0, 0], pset },
            },
        );
        remaining -= 1;
    }
    assert!(
        sends(&effects)
            .iter()
            .any(|(to, m)| *to == COORD_PRIMARY && matches!(m, Message::ClientCommit { .. })),
        "commit delegated to the coordinator-server: {effects:?}"
    );
    (7, aid)
}

#[test]
fn full_flow_reports_committed() {
    let mut a = agent();
    let (_, aid) = drive_to_commit(&mut a, vec![counter::incr(SERVER, 0, 1)]);
    let effects = a.on_message(20, COORD_PRIMARY, Message::ClientOutcome { aid, committed: true });
    let result = effects.iter().find_map(|e| match e {
        Effect::TxnResult { req_id, outcome, .. } => Some((req_id, outcome)),
        _ => None,
    });
    match result {
        Some((7, TxnOutcome::Committed { results })) => assert_eq!(results.len(), 1),
        other => panic!("expected committed result, got {other:?}"),
    }
    assert_eq!(a.active_txns(), 0, "transaction retired");
}

#[test]
fn coordinator_abort_reports_aborted() {
    let mut a = agent();
    let (_, aid) = drive_to_commit(&mut a, vec![counter::incr(SERVER, 0, 1)]);
    let effects = a.on_message(20, COORD_PRIMARY, Message::ClientOutcome { aid, committed: false });
    assert!(effects.iter().any(|e| matches!(
        e,
        Effect::TxnResult {
            outcome: TxnOutcome::Aborted { reason: AbortReason::CoordinatorAborted },
            ..
        }
    )));
}

#[test]
fn ping_answered_only_for_live_transactions() {
    let mut a = agent();
    let (_, aid) = drive_to_commit(&mut a, vec![counter::incr(SERVER, 0, 1)]);
    // Live transaction: pong.
    let effects =
        a.on_message(25, COORD_PRIMARY, Message::ClientPing { aid, reply_to: COORD_PRIMARY });
    assert!(sends(&effects).iter().any(|(_, m)| matches!(m, Message::ClientPong { .. })));
    // Retired transaction: silence.
    a.on_message(30, COORD_PRIMARY, Message::ClientOutcome { aid, committed: true });
    let effects =
        a.on_message(35, COORD_PRIMARY, Message::ClientPing { aid, reply_to: COORD_PRIMARY });
    assert!(sends(&effects).is_empty(), "no pong for unknown transactions");
}

#[test]
fn commit_retries_then_reports_unresolved() {
    let mut a = agent();
    let cfg = CohortConfig::new();
    let (_, aid) = drive_to_commit(&mut a, vec![counter::incr(SERVER, 0, 1)]);
    // Never answer the ClientCommit; fire the retry timer repeatedly.
    let mut unresolved = false;
    for attempt in 1..=(cfg.prepare_attempts * 2 + 1) {
        let effects = a.on_timer(100 + attempt as u64, Timer::AgentCommitRetry { aid, attempt });
        if effects
            .iter()
            .any(|e| matches!(e, Effect::TxnResult { outcome: TxnOutcome::Unresolved, .. }))
        {
            unresolved = true;
            break;
        }
        // Until exhaustion, each firing re-sends the commit.
        assert!(
            sends(&effects).iter().any(|(_, m)| matches!(m, Message::ClientCommit { .. })),
            "attempt {attempt} re-sent"
        );
    }
    assert!(unresolved, "outcome is reported unknown, never guessed");
}

#[test]
fn begin_timeout_aborts() {
    let mut a = agent();
    let cfg = CohortConfig::new();
    a.begin_transaction(0, 7, vec![counter::incr(SERVER, 0, 1)]);
    // The coordinator never answers; exhaust the begin retries.
    let mut aborted = false;
    for attempt in 1..=cfg.call_attempts + 1 {
        let effects = a.on_timer(50 * attempt as u64, Timer::AgentBeginRetry { req: 7, attempt });
        if effects.iter().any(|e| {
            matches!(e, Effect::TxnResult { outcome: TxnOutcome::Aborted { .. }, aid: None, .. })
        }) {
            aborted = true;
            break;
        }
    }
    assert!(aborted, "begin gave up and aborted");
    assert_eq!(a.active_txns(), 0);
}

#[test]
fn refused_call_aborts_and_notifies_participants_and_coordinator() {
    let mut a = agent();
    let effects = a.begin_transaction(0, 7, vec![counter::incr(SERVER, 0, 1)]);
    let aid = test_aid();
    let effects2 = a.on_message(5, COORD_PRIMARY, Message::ClientBeginAck { req: 7, aid });
    let call_id = sends(&effects2)
        .iter()
        .find_map(|(_, m)| match m {
            Message::Call { call_id, .. } => Some(*call_id),
            _ => None,
        })
        .expect("call sent");
    let effects3 = a.on_message(
        10,
        SERVER_PRIMARY,
        Message::CallReply {
            call_id,
            outcome: CallOutcome::Refused(vsr_core::messages::CallRefusal::LockTimeout),
        },
    );
    let msgs = sends(&effects3);
    assert!(
        msgs.iter().any(|(to, m)| *to == COORD_PRIMARY && matches!(m, Message::ClientAbort { .. })),
        "coordinator told about the abort"
    );
    assert!(effects3
        .iter()
        .any(|e| matches!(e, Effect::TxnResult { outcome: TxnOutcome::Aborted { .. }, .. })));
    let _ = effects;
}

#[test]
fn call_reject_with_newer_view_resends_to_new_primary() {
    let mut a = agent();
    a.begin_transaction(0, 7, vec![counter::incr(SERVER, 0, 1)]);
    let aid = test_aid();
    let effects = a.on_message(5, COORD_PRIMARY, Message::ClientBeginAck { req: 7, aid });
    let call_id = sends(&effects)
        .iter()
        .find_map(|(_, m)| match m {
            Message::Call { call_id, .. } => Some(*call_id),
            _ => None,
        })
        .expect("call sent");
    // The server group changed views; Mid(2) is the new primary.
    let newer_vid = ViewId { counter: 3, manager: Mid(2) };
    let newer_view = vsr_core::view::View::new(Mid(2), vec![Mid(3)]);
    let effects = a.on_message(
        12,
        SERVER_PRIMARY,
        Message::CallReject { call_id, newer: Some((newer_vid, newer_view)) },
    );
    let resent = sends(&effects)
        .iter()
        .find_map(|(to, m)| match m {
            Message::Call { viewid, call_id: c, .. } => Some((*to, *viewid, *c)),
            _ => None,
        })
        .expect("resent");
    assert_eq!(resent.0, Mid(2), "to the new primary");
    assert_eq!(resent.1, newer_vid, "with the new viewid");
    assert_eq!(resent.2, call_id, "same call id (rejection proves non-execution)");
}

#[test]
fn redirect_with_an_older_view_makes_the_agent_probe() {
    // A redirect naming a view the agent has already superseded says only
    // that its cached primary is wrong: like a cohort, the agent probes
    // the group at once instead of waiting for its retry timer.
    let mut a = agent();
    a.begin_transaction(0, 7, vec![counter::incr(SERVER, 0, 1)]);
    let effects =
        a.on_message(5, COORD_PRIMARY, Message::ClientBeginAck { req: 7, aid: test_aid() });
    let call_id = sends(&effects)
        .iter()
        .find_map(|(_, m)| match m {
            Message::Call { call_id, .. } => Some(*call_id),
            _ => None,
        })
        .expect("call sent");
    let newer_vid = ViewId { counter: 3, manager: Mid(2) };
    let newer_view = vsr_core::view::View::new(Mid(2), vec![Mid(3)]);
    a.on_message(
        10,
        SERVER_PRIMARY,
        Message::CallReject { call_id, newer: Some((newer_vid, newer_view)) },
    );
    let older = vsr_core::view::View::new(SERVER_PRIMARY, vec![Mid(2), Mid(3)]);
    let effects = a.on_message(
        12,
        Mid(3),
        Message::Redirect { group: SERVER, newer: Some((ViewId::initial(SERVER_PRIMARY), older)) },
    );
    let probed: Vec<Mid> = sends(&effects)
        .iter()
        .filter_map(|(to, m)| match m {
            Message::Probe { group: SERVER, reply_to: AGENT_MID } => Some(*to),
            _ => None,
        })
        .collect();
    assert_eq!(probed, vec![Mid(1), Mid(2), Mid(3)], "probed every member: {effects:?}");
    assert_eq!(
        a.on_message(13, Mid(3), Message::Redirect { group: SERVER, newer: None })
            .iter()
            .filter(|e| matches!(e, Effect::Send { msg: Message::Probe { .. }, .. }))
            .count(),
        3,
        "a redirect naming no view probes too"
    );
}

/// The call sent and the retry timer armed by one step of the agent.
fn call_and_timer(effects: &[Effect]) -> (Option<CallId>, Option<Timer>) {
    let call = sends(effects).iter().find_map(|(to, m)| match m {
        Message::Call { call_id, .. } if *to == SERVER_PRIMARY => Some(*call_id),
        _ => None,
    });
    let timer = effects.iter().find_map(|e| match e {
        Effect::SetTimer { timer, .. } => Some(timer.clone()),
        _ => None,
    });
    (call, timer)
}

#[test]
fn unanswered_call_is_retried_redone_then_timed_out() {
    let mut a = agent();
    let cfg = CohortConfig::new();
    assert!(cfg.call_attempts >= 2 && cfg.call_redo_attempts >= 1);
    a.begin_transaction(0, 7, vec![counter::incr(SERVER, 0, 1)]);
    let effects =
        a.on_message(5, COORD_PRIMARY, Message::ClientBeginAck { req: 7, aid: test_aid() });
    let (first, timer) = call_and_timer(&effects);
    let first = first.expect("call sent");
    let mut timer = timer.expect("call retry armed");
    let mut calls = vec![first];
    let mut now = 10;
    // Feed back whatever retry timer the agent armed until it gives up.
    let outcome = loop {
        now += 1_000;
        let effects = a.on_timer(now, timer);
        if let Some(outcome) = effects.iter().find_map(|e| match e {
            Effect::TxnResult { outcome, .. } => Some(outcome.clone()),
            _ => None,
        }) {
            assert!(
                sends(&effects).iter().any(|(to, m)| *to == COORD_PRIMARY
                    && matches!(m, Message::ClientAbort { .. })),
                "the coordinator-server is told about the abort"
            );
            break outcome;
        }
        let (call, next) = call_and_timer(&effects);
        calls.push(call.expect("every firing re-sends the call"));
        assert!(
            sends(&effects).iter().any(|(_, m)| matches!(m, Message::Probe { group: SERVER, .. })),
            "every firing probes the server group"
        );
        timer = next.expect("every firing re-arms the retry");
    };
    assert_eq!(outcome, TxnOutcome::Aborted { reason: AbortReason::CallTimeout { group: SERVER } });
    // `call_attempts` sends per subaction, one subaction per generation:
    // the first and `call_redo_attempts` redos, each under a fresh call id.
    let per_generation = cfg.call_attempts as usize;
    assert_eq!(calls.len(), per_generation * (cfg.call_redo_attempts as usize + 1));
    for (i, call_id) in calls.iter().enumerate() {
        assert_eq!(call_id.aid, test_aid());
        assert_eq!(call_op_index(call_id.seq), 0, "always the script's first call");
        assert_eq!(call_id.seq >> 32, (i / per_generation) as u64, "send {i}'s generation");
    }
    assert_eq!(calls[per_generation - 1], first, "retries reuse the call id");
    assert_ne!(calls[per_generation], first, "the redo runs under a fresh call id");
    assert_eq!(a.active_txns(), 0);
}

//! A stable, dependency-free binary codec for the durable log.
//!
//! Same idiom as the application argument codec (`vsr_app::codec`):
//! little-endian `u64` integers, length-prefixed byte strings, explicit
//! enum tags, and a cursor-based decoder that reports *what* failed to
//! decode. It lives in the core crate because a checkpoint must
//! reconstruct [`GroupState`] field-for-field, including parts with no
//! public constructor.
//!
//! The entry points are [`encode_durable_event`] /
//! [`decode_durable_event`] (everything a store appends to its log) and
//! [`encode_message`] / [`decode_message`] (everything a transport puts
//! on a socket); the per-type helpers stay private so the encoding
//! remains a single auditable unit.

use crate::durable::{Checkpoint, DurableEvent};
use crate::event::{EventKind, EventRecord};
use crate::gstate::{
    CompletedCall, GroupState, LockMode, ObjectAccess, StoredObject, TxnStatus, Value,
};
use crate::history::History;
use crate::messages::{CallOutcome, CallRefusal, Message, QueryOutcome};
use crate::pset::PSet;
use crate::snapshot::{SnapDigest, SnapshotRef};
use crate::types::{Aid, CallId, GroupId, Mid, ObjectId, Timestamp, ViewId, Viewstamp};
use crate::view::View;
use std::collections::BTreeMap;
use std::fmt;

/// A decoding failure: truncated input, a bad tag, or a payload that
/// violates a protocol invariant (e.g. a history with non-increasing
/// viewids). Corrupt frames that slip past the CRC must *fail*, never
/// load garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was being decoded.
    pub context: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed encoding while decoding {}", self.context)
    }
}

impl std::error::Error for DecodeError {}

#[derive(Debug, Clone, Default)]
struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

#[derive(Debug, Clone)]
struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        let end = self.pos.checked_add(8).ok_or(DecodeError { context })?;
        let slice = self.buf.get(self.pos..end).ok_or(DecodeError { context })?;
        self.pos = end;
        // vsr-lint: allow(expect_used, reason = "slice is exactly 8 bytes by the get() above")
        Ok(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let len = self.u64(context)? as usize;
        let end = self.pos.checked_add(len).ok_or(DecodeError { context })?;
        let slice = self.buf.get(self.pos..end).ok_or(DecodeError { context })?;
        self.pos = end;
        Ok(slice)
    }

    /// A container length, sanity-bounded by the bytes remaining so a
    /// corrupt length cannot trigger a huge allocation.
    fn len(&mut self, context: &'static str) -> Result<usize, DecodeError> {
        let len = self.u64(context)? as usize;
        if len > self.buf.len() - self.pos {
            return Err(DecodeError { context });
        }
        Ok(len)
    }

    fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------
// identifiers
// ---------------------------------------------------------------------

fn enc_viewid(e: &mut Encoder, v: ViewId) {
    e.u64(v.counter);
    e.u64(v.manager.0);
}

fn dec_viewid(d: &mut Decoder<'_>) -> Result<ViewId, DecodeError> {
    Ok(ViewId { counter: d.u64("viewid.counter")?, manager: Mid(d.u64("viewid.manager")?) })
}

fn enc_viewstamp(e: &mut Encoder, v: Viewstamp) {
    enc_viewid(e, v.id);
    e.u64(v.ts.0);
}

fn dec_viewstamp(d: &mut Decoder<'_>) -> Result<Viewstamp, DecodeError> {
    Ok(Viewstamp { id: dec_viewid(d)?, ts: Timestamp(d.u64("viewstamp.ts")?) })
}

fn enc_aid(e: &mut Encoder, a: Aid) {
    e.u64(a.group.0);
    enc_viewid(e, a.view);
    e.u64(a.seq);
}

fn dec_aid(d: &mut Decoder<'_>) -> Result<Aid, DecodeError> {
    Ok(Aid { group: GroupId(d.u64("aid.group")?), view: dec_viewid(d)?, seq: d.u64("aid.seq")? })
}

fn enc_call_id(e: &mut Encoder, c: CallId) {
    enc_aid(e, c.aid);
    e.u64(c.seq);
}

fn dec_call_id(d: &mut Decoder<'_>) -> Result<CallId, DecodeError> {
    Ok(CallId { aid: dec_aid(d)?, seq: d.u64("call_id.seq")? })
}

// ---------------------------------------------------------------------
// gstate
// ---------------------------------------------------------------------

fn enc_value(e: &mut Encoder, v: &Value) {
    e.bytes(v.as_bytes());
}

fn dec_value(d: &mut Decoder<'_>) -> Result<Value, DecodeError> {
    Ok(Value(d.bytes("value")?.to_vec()))
}

fn enc_access(e: &mut Encoder, a: &ObjectAccess) {
    e.u64(a.oid.0);
    e.u64(match a.mode {
        LockMode::Read => 0,
        LockMode::Write => 1,
    });
    match &a.written {
        None => e.u64(0),
        Some(v) => {
            e.u64(1);
            enc_value(e, v);
        }
    }
    match a.read_version {
        None => e.u64(0),
        Some(v) => {
            e.u64(1);
            e.u64(v);
        }
    }
}

fn dec_access(d: &mut Decoder<'_>) -> Result<ObjectAccess, DecodeError> {
    let oid = ObjectId(d.u64("access.oid")?);
    let mode = match d.u64("access.mode")? {
        0 => LockMode::Read,
        1 => LockMode::Write,
        _ => return Err(DecodeError { context: "access.mode" }),
    };
    let written = match d.u64("access.written.tag")? {
        0 => None,
        1 => Some(dec_value(d)?),
        _ => return Err(DecodeError { context: "access.written.tag" }),
    };
    let read_version = match d.u64("access.read_version.tag")? {
        0 => None,
        1 => Some(d.u64("access.read_version")?),
        _ => return Err(DecodeError { context: "access.read_version.tag" }),
    };
    Ok(ObjectAccess { oid, mode, written, read_version })
}

fn enc_completed_call(e: &mut Encoder, c: &CompletedCall) {
    enc_viewstamp(e, c.vs);
    enc_call_id(e, c.call_id);
    e.u64(c.accesses.len() as u64);
    for a in &c.accesses {
        enc_access(e, a);
    }
    enc_value(e, &c.result);
    e.u64(c.nested.len() as u64);
    for &(g, vs) in &c.nested {
        e.u64(g.0);
        enc_viewstamp(e, vs);
    }
}

fn dec_completed_call(d: &mut Decoder<'_>) -> Result<CompletedCall, DecodeError> {
    let vs = dec_viewstamp(d)?;
    let call_id = dec_call_id(d)?;
    let n = d.len("call.accesses.len")?;
    let mut accesses = Vec::with_capacity(n);
    for _ in 0..n {
        accesses.push(dec_access(d)?);
    }
    let result = dec_value(d)?;
    let n = d.len("call.nested.len")?;
    let mut nested = Vec::with_capacity(n);
    for _ in 0..n {
        nested.push((GroupId(d.u64("call.nested.group")?), dec_viewstamp(d)?));
    }
    Ok(CompletedCall { vs, call_id, accesses, result, nested })
}

fn enc_status(e: &mut Encoder, s: &TxnStatus) {
    match s {
        TxnStatus::Committing { plist } => {
            e.u64(0);
            e.u64(plist.len() as u64);
            for g in plist {
                e.u64(g.0);
            }
        }
        TxnStatus::Committed => e.u64(1),
        TxnStatus::Aborted => e.u64(2),
        TxnStatus::Done => e.u64(3),
    }
}

fn dec_status(d: &mut Decoder<'_>) -> Result<TxnStatus, DecodeError> {
    Ok(match d.u64("status.tag")? {
        0 => {
            let n = d.len("status.plist.len")?;
            let mut plist = Vec::with_capacity(n);
            for _ in 0..n {
                plist.push(GroupId(d.u64("status.plist.group")?));
            }
            TxnStatus::Committing { plist }
        }
        1 => TxnStatus::Committed,
        2 => TxnStatus::Aborted,
        3 => TxnStatus::Done,
        _ => return Err(DecodeError { context: "status.tag" }),
    })
}

fn enc_gstate(e: &mut Encoder, g: &GroupState) {
    e.u64(g.objects.len() as u64);
    for (oid, obj) in &g.objects {
        e.u64(oid.0);
        enc_value(e, &obj.value);
        e.u64(obj.version);
    }
    e.u64(g.pending.len() as u64);
    for (aid, calls) in &g.pending {
        enc_aid(e, *aid);
        e.u64(calls.len() as u64);
        for c in calls {
            enc_completed_call(e, c);
        }
    }
    e.u64(g.statuses.len() as u64);
    for (aid, status) in &g.statuses {
        enc_aid(e, *aid);
        enc_status(e, status);
    }
    e.u64(g.dropped_calls.len() as u64);
    for (aid, dropped) in &g.dropped_calls {
        enc_aid(e, *aid);
        e.u64(dropped.len() as u64);
        for c in dropped {
            enc_call_id(e, *c);
        }
    }
    e.u64(g.horizons.len() as u64);
    for horizon in g.horizons.values() {
        enc_aid(e, *horizon);
    }
    enc_runs(e, &g.finished);
    enc_runs(e, &g.one_phase);
}

fn enc_runs(e: &mut Encoder, runs: &BTreeMap<Aid, u64>) {
    e.u64(runs.len() as u64);
    for (start, end) in runs {
        enc_aid(e, *start);
        e.u64(*end);
    }
}

fn dec_runs(d: &mut Decoder<'_>) -> Result<BTreeMap<Aid, u64>, DecodeError> {
    let mut runs = BTreeMap::new();
    for _ in 0..d.len("gstate.runs.len")? {
        let start = dec_aid(d)?;
        let end = d.u64("gstate.runs.end")?;
        if end <= start.seq {
            return Err(DecodeError { context: "gstate.runs.end" });
        }
        runs.insert(start, end);
    }
    Ok(runs)
}

fn dec_gstate(d: &mut Decoder<'_>) -> Result<GroupState, DecodeError> {
    let mut objects = BTreeMap::new();
    for _ in 0..d.len("gstate.objects.len")? {
        let oid = ObjectId(d.u64("gstate.object.oid")?);
        let value = dec_value(d)?;
        let version = d.u64("gstate.object.version")?;
        objects.insert(oid, StoredObject { value, version });
    }
    let mut pending = BTreeMap::new();
    for _ in 0..d.len("gstate.pending.len")? {
        let aid = dec_aid(d)?;
        let n = d.len("gstate.pending.calls.len")?;
        let mut calls = Vec::with_capacity(n);
        for _ in 0..n {
            calls.push(dec_completed_call(d)?);
        }
        pending.insert(aid, calls);
    }
    let mut statuses = BTreeMap::new();
    for _ in 0..d.len("gstate.statuses.len")? {
        let aid = dec_aid(d)?;
        statuses.insert(aid, dec_status(d)?);
    }
    let mut dropped_calls = BTreeMap::new();
    for _ in 0..d.len("gstate.dropped.len")? {
        let aid = dec_aid(d)?;
        let n = d.len("gstate.dropped.calls.len")?;
        let mut dropped = Vec::with_capacity(n);
        for _ in 0..n {
            dropped.push(dec_call_id(d)?);
        }
        dropped_calls.insert(aid, dropped);
    }
    let mut horizons = BTreeMap::new();
    for _ in 0..d.len("gstate.horizons.len")? {
        let horizon = dec_aid(d)?;
        horizons.insert(horizon.group, horizon);
    }
    let finished = dec_runs(d)?;
    let one_phase = dec_runs(d)?;
    Ok(GroupState { objects, pending, statuses, dropped_calls, horizons, finished, one_phase })
}

// ---------------------------------------------------------------------
// history and views
// ---------------------------------------------------------------------

fn enc_history(e: &mut Encoder, h: &History) {
    e.u64(h.len() as u64);
    for vs in h.iter() {
        enc_viewstamp(e, vs);
    }
}

fn dec_history(d: &mut Decoder<'_>) -> Result<History, DecodeError> {
    let n = d.len("history.len")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(dec_viewstamp(d)?);
    }
    // Validate before constructing: `History` panics on non-increasing
    // viewids, and decoding must fail, not abort.
    if entries.windows(2).any(|w| w[1].id <= w[0].id) {
        return Err(DecodeError { context: "history.order" });
    }
    Ok(entries.into_iter().collect())
}

fn enc_view(e: &mut Encoder, v: &View) {
    e.u64(v.primary().0);
    e.u64(v.backups().len() as u64);
    for b in v.backups() {
        e.u64(b.0);
    }
}

fn dec_view(d: &mut Decoder<'_>) -> Result<View, DecodeError> {
    let primary = Mid(d.u64("view.primary")?);
    let n = d.len("view.backups.len")?;
    let mut backups = Vec::with_capacity(n);
    for _ in 0..n {
        backups.push(Mid(d.u64("view.backup")?));
    }
    // Validate the `View::new` panics away.
    let mut sorted = backups.clone();
    sorted.sort();
    sorted.dedup();
    if sorted.len() != backups.len() || backups.contains(&primary) {
        return Err(DecodeError { context: "view.backups" });
    }
    Ok(View::new(primary, backups))
}

// ---------------------------------------------------------------------
// event records
// ---------------------------------------------------------------------

fn enc_event_kind(e: &mut Encoder, k: &EventKind) {
    match k {
        EventKind::CompletedCall { aid, record } => {
            e.u64(0);
            enc_aid(e, *aid);
            enc_completed_call(e, record);
        }
        EventKind::Committing { aid, plist } => {
            e.u64(1);
            enc_aid(e, *aid);
            e.u64(plist.len() as u64);
            for g in plist {
                e.u64(g.0);
            }
        }
        EventKind::Committed { aid } => {
            e.u64(2);
            enc_aid(e, *aid);
        }
        EventKind::Aborted { aid } => {
            e.u64(3);
            enc_aid(e, *aid);
        }
        EventKind::Done { aid } => {
            e.u64(4);
            enc_aid(e, *aid);
        }
        EventKind::CallsDropped { aid, dropped } => {
            e.u64(5);
            enc_aid(e, *aid);
            e.u64(dropped.len() as u64);
            for c in dropped {
                enc_call_id(e, *c);
            }
        }
        EventKind::Horizon { done_below } => {
            e.u64(7);
            enc_aid(e, *done_below);
        }
        EventKind::OnePhaseCommitted { aid } => {
            e.u64(8);
            enc_aid(e, *aid);
        }
        EventKind::NewView { view, history, base, delta } => {
            e.u64(6);
            enc_view(e, view);
            enc_history(e, history);
            enc_digest(e, base.digest);
            enc_viewstamp(e, base.vs);
            e.u64(delta.len() as u64);
            for r in delta.iter() {
                enc_event_record(e, r);
            }
        }
    }
}

fn dec_event_kind(d: &mut Decoder<'_>) -> Result<EventKind, DecodeError> {
    let tag = d.u64("event.tag")?;
    dec_event_kind_tagged(d, tag)
}

fn dec_event_kind_tagged(d: &mut Decoder<'_>, tag: u64) -> Result<EventKind, DecodeError> {
    Ok(match tag {
        0 => EventKind::CompletedCall { aid: dec_aid(d)?, record: dec_completed_call(d)? },
        1 => {
            let aid = dec_aid(d)?;
            let n = d.len("event.plist.len")?;
            let mut plist = Vec::with_capacity(n);
            for _ in 0..n {
                plist.push(GroupId(d.u64("event.plist.group")?));
            }
            EventKind::Committing { aid, plist }
        }
        2 => EventKind::Committed { aid: dec_aid(d)? },
        3 => EventKind::Aborted { aid: dec_aid(d)? },
        4 => EventKind::Done { aid: dec_aid(d)? },
        7 => EventKind::Horizon { done_below: dec_aid(d)? },
        8 => EventKind::OnePhaseCommitted { aid: dec_aid(d)? },
        5 => {
            let aid = dec_aid(d)?;
            let n = d.len("event.dropped.len")?;
            let mut dropped = Vec::with_capacity(n);
            for _ in 0..n {
                dropped.push(dec_call_id(d)?);
            }
            EventKind::CallsDropped { aid, dropped }
        }
        6 => {
            let view = dec_view(d)?;
            let history = dec_history(d)?;
            let digest = dec_digest(d)?;
            let vs = dec_viewstamp(d)?;
            let n = d.len("newview.delta.len")?;
            let mut delta = Vec::with_capacity(n);
            for _ in 0..n {
                let rvs = dec_viewstamp(d)?;
                let rtag = d.u64("event.tag")?;
                // A newview record never nests inside a delta — rejecting
                // the tag *before* recursing keeps decoding depth flat no
                // matter what a corrupt frame claims.
                if rtag == 6 {
                    return Err(DecodeError { context: "newview.delta.kind" });
                }
                delta.push(EventRecord { vs: rvs, kind: dec_event_kind_tagged(d, rtag)? });
            }
            EventKind::NewView {
                view,
                history,
                base: SnapshotRef { digest, vs },
                delta: delta.into(),
            }
        }
        _ => return Err(DecodeError { context: "event.tag" }),
    })
}

fn enc_digest(e: &mut Encoder, digest: SnapDigest) {
    e.buf.extend_from_slice(&digest.0);
}

fn dec_digest(d: &mut Decoder<'_>) -> Result<SnapDigest, DecodeError> {
    let context = "digest";
    let end = d.pos.checked_add(16).ok_or(DecodeError { context })?;
    let slice = d.buf.get(d.pos..end).ok_or(DecodeError { context })?;
    d.pos = end;
    // vsr-lint: allow(expect_used, reason = "slice is exactly 16 bytes by the get() above")
    Ok(SnapDigest(slice.try_into().expect("16 bytes")))
}

fn enc_event_record(e: &mut Encoder, r: &EventRecord) {
    enc_viewstamp(e, r.vs);
    enc_event_kind(e, &r.kind);
}

fn dec_event_record(d: &mut Decoder<'_>) -> Result<EventRecord, DecodeError> {
    Ok(EventRecord { vs: dec_viewstamp(d)?, kind: dec_event_kind(d)? })
}

// ---------------------------------------------------------------------
// snapshots
// ---------------------------------------------------------------------

/// Canonical encoding of a snapshot: `(viewstamp, history, gstate)`.
/// These are the bytes that get digested and served in chunks, so the
/// encoding must be deterministic — it is, because every container in
/// the state is ordered (`Vec`s and `BTreeMap`s, never hash maps).
pub(crate) fn encode_snapshot(vs: Viewstamp, history: &History, gstate: &GroupState) -> Vec<u8> {
    let mut e = Encoder::default();
    enc_viewstamp(&mut e, vs);
    enc_history(&mut e, history);
    enc_gstate(&mut e, gstate);
    e.buf
}

/// Decode snapshot bytes produced by [`encode_snapshot`] (typically
/// reassembled from a chunked state transfer). Rejects trailing garbage.
pub(crate) fn decode_snapshot(buf: &[u8]) -> Result<(Viewstamp, History, GroupState), DecodeError> {
    let mut d = Decoder::new(buf);
    let vs = dec_viewstamp(&mut d)?;
    let history = dec_history(&mut d)?;
    let gstate = dec_gstate(&mut d)?;
    if !d.is_exhausted() {
        return Err(DecodeError { context: "snapshot.trailing" });
    }
    Ok((vs, history, gstate))
}

// ---------------------------------------------------------------------
// durable events
// ---------------------------------------------------------------------

/// Encode a [`DurableEvent`] as a self-contained byte string (the payload
/// of one log frame; framing and CRC belong to the store).
pub fn encode_durable_event(event: &DurableEvent) -> Vec<u8> {
    let mut e = Encoder::default();
    match event {
        DurableEvent::Record(r) => {
            e.u64(0);
            enc_event_record(&mut e, r);
        }
        DurableEvent::StableViewId(v) => {
            e.u64(1);
            enc_viewid(&mut e, *v);
        }
        DurableEvent::Checkpoint(c) => {
            e.u64(2);
            enc_viewid(&mut e, c.viewid);
            enc_view(&mut e, &c.view);
            enc_history(&mut e, &c.history);
            enc_gstate(&mut e, &c.gstate);
        }
        DurableEvent::Sync => e.u64(3),
    }
    e.buf
}

/// Decode a byte string produced by [`encode_durable_event`].
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, trailing garbage, unknown tags,
/// or payloads violating protocol invariants.
pub fn decode_durable_event(buf: &[u8]) -> Result<DurableEvent, DecodeError> {
    let mut d = Decoder::new(buf);
    let event = match d.u64("durable.tag")? {
        0 => DurableEvent::Record(dec_event_record(&mut d)?),
        1 => DurableEvent::StableViewId(dec_viewid(&mut d)?),
        2 => DurableEvent::Checkpoint(Checkpoint {
            viewid: dec_viewid(&mut d)?,
            view: dec_view(&mut d)?,
            history: dec_history(&mut d)?,
            gstate: dec_gstate(&mut d)?,
        }),
        3 => DurableEvent::Sync,
        _ => return Err(DecodeError { context: "durable.tag" }),
    };
    if !d.is_exhausted() {
        return Err(DecodeError { context: "durable.trailing" });
    }
    Ok(event)
}

// ---------------------------------------------------------------------
// protocol messages
// ---------------------------------------------------------------------

fn enc_string(e: &mut Encoder, s: &str) {
    e.bytes(s.as_bytes());
}

fn dec_string(d: &mut Decoder<'_>, context: &'static str) -> Result<String, DecodeError> {
    let bytes = d.bytes(context)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError { context })
}

fn enc_bool(e: &mut Encoder, b: bool) {
    e.u64(u64::from(b));
}

fn dec_bool(d: &mut Decoder<'_>, context: &'static str) -> Result<bool, DecodeError> {
    match d.u64(context)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError { context }),
    }
}

fn enc_pset(e: &mut Encoder, ps: &PSet) {
    e.u64(ps.len() as u64);
    for (g, vs) in ps.iter() {
        e.u64(g.0);
        enc_viewstamp(e, vs);
    }
}

fn dec_pset(d: &mut Decoder<'_>) -> Result<PSet, DecodeError> {
    let n = d.len("pset.len")?;
    let mut ps = PSet::new();
    for _ in 0..n {
        ps.insert(GroupId(d.u64("pset.group")?), dec_viewstamp(d)?);
    }
    Ok(ps)
}

fn enc_newer(e: &mut Encoder, newer: &Option<(ViewId, View)>) {
    match newer {
        None => e.u64(0),
        Some((viewid, view)) => {
            e.u64(1);
            enc_viewid(e, *viewid);
            enc_view(e, view);
        }
    }
}

fn dec_newer(d: &mut Decoder<'_>) -> Result<Option<(ViewId, View)>, DecodeError> {
    match d.u64("newer.tag")? {
        0 => Ok(None),
        1 => Ok(Some((dec_viewid(d)?, dec_view(d)?))),
        _ => Err(DecodeError { context: "newer.tag" }),
    }
}

fn enc_call_outcome(e: &mut Encoder, outcome: &CallOutcome) {
    match outcome {
        CallOutcome::Ok { result, pset } => {
            e.u64(0);
            e.bytes(result);
            enc_pset(e, pset);
        }
        CallOutcome::Refused(CallRefusal::LockTimeout) => e.u64(1),
        CallOutcome::Refused(CallRefusal::Application(why)) => {
            e.u64(2);
            enc_string(e, why);
        }
    }
}

fn dec_call_outcome(d: &mut Decoder<'_>) -> Result<CallOutcome, DecodeError> {
    Ok(match d.u64("call_outcome.tag")? {
        0 => {
            CallOutcome::Ok { result: d.bytes("call_outcome.result")?.to_vec(), pset: dec_pset(d)? }
        }
        1 => CallOutcome::Refused(CallRefusal::LockTimeout),
        2 => CallOutcome::Refused(CallRefusal::Application(dec_string(d, "call_outcome.why")?)),
        _ => return Err(DecodeError { context: "call_outcome.tag" }),
    })
}

fn enc_query_outcome(e: &mut Encoder, outcome: QueryOutcome) {
    e.u64(match outcome {
        QueryOutcome::Committed => 0,
        QueryOutcome::Aborted => 1,
        QueryOutcome::Active => 2,
        QueryOutcome::Unknown => 3,
    });
}

fn dec_query_outcome(d: &mut Decoder<'_>) -> Result<QueryOutcome, DecodeError> {
    Ok(match d.u64("query_outcome.tag")? {
        0 => QueryOutcome::Committed,
        1 => QueryOutcome::Aborted,
        2 => QueryOutcome::Active,
        3 => QueryOutcome::Unknown,
        _ => return Err(DecodeError { context: "query_outcome.tag" }),
    })
}

/// Encode a protocol [`Message`] as a self-contained byte string (the
/// payload of one transport frame; framing and CRC belong to the
/// transport, exactly as the durable-event codec leaves them to the
/// store).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut e = Encoder::default();
    match msg {
        Message::Call { viewid, call_id, proc, args } => {
            e.u64(0);
            enc_viewid(&mut e, *viewid);
            enc_call_id(&mut e, *call_id);
            enc_string(&mut e, proc);
            e.bytes(args);
        }
        Message::CallReply { call_id, outcome } => {
            e.u64(1);
            enc_call_id(&mut e, *call_id);
            enc_call_outcome(&mut e, outcome);
        }
        Message::CallReject { call_id, newer } => {
            e.u64(2);
            enc_call_id(&mut e, *call_id);
            enc_newer(&mut e, newer);
        }
        Message::Prepare { aid, pset, coordinator } => {
            e.u64(3);
            enc_aid(&mut e, *aid);
            enc_pset(&mut e, pset);
            e.u64(coordinator.0);
        }
        Message::PrepareOk { aid, group, read_only } => {
            e.u64(4);
            enc_aid(&mut e, *aid);
            e.u64(group.0);
            enc_bool(&mut e, *read_only);
        }
        Message::PrepareRefuse { aid, group } => {
            e.u64(5);
            enc_aid(&mut e, *aid);
            e.u64(group.0);
        }
        Message::Commit { aid, coordinator } => {
            e.u64(6);
            enc_aid(&mut e, *aid);
            e.u64(coordinator.0);
        }
        Message::CommitDone { aid, group } => {
            e.u64(7);
            enc_aid(&mut e, *aid);
            e.u64(group.0);
        }
        Message::Abort { aid } => {
            e.u64(8);
            enc_aid(&mut e, *aid);
        }
        Message::Redirect { group, newer } => {
            e.u64(9);
            e.u64(group.0);
            enc_newer(&mut e, newer);
        }
        Message::Query { aid, reply_to } => {
            e.u64(10);
            enc_aid(&mut e, *aid);
            e.u64(reply_to.0);
        }
        Message::QueryReply { aid, outcome } => {
            e.u64(11);
            enc_aid(&mut e, *aid);
            enc_query_outcome(&mut e, *outcome);
        }
        Message::ClientBegin { req, reply_to } => {
            e.u64(12);
            e.u64(*req);
            e.u64(reply_to.0);
        }
        Message::ClientBeginAck { req, aid } => {
            e.u64(13);
            e.u64(*req);
            enc_aid(&mut e, *aid);
        }
        Message::ClientCommit { aid, pset, reply_to } => {
            e.u64(14);
            enc_aid(&mut e, *aid);
            enc_pset(&mut e, pset);
            e.u64(reply_to.0);
        }
        Message::ClientAbort { aid } => {
            e.u64(15);
            enc_aid(&mut e, *aid);
        }
        Message::ClientOutcome { aid, committed } => {
            e.u64(16);
            enc_aid(&mut e, *aid);
            enc_bool(&mut e, *committed);
        }
        Message::ClientPing { aid, reply_to } => {
            e.u64(17);
            enc_aid(&mut e, *aid);
            e.u64(reply_to.0);
        }
        Message::ClientPong { aid } => {
            e.u64(18);
            enc_aid(&mut e, *aid);
        }
        Message::Probe { group, reply_to } => {
            e.u64(19);
            e.u64(group.0);
            e.u64(reply_to.0);
        }
        Message::ProbeReply { group, viewid, view } => {
            e.u64(20);
            e.u64(group.0);
            enc_viewid(&mut e, *viewid);
            enc_view(&mut e, view);
        }
        Message::BufferSend { viewid, from, records } => {
            e.u64(21);
            enc_viewid(&mut e, *viewid);
            e.u64(from.0);
            e.u64(records.len() as u64);
            for r in records.iter() {
                enc_event_record(&mut e, r);
            }
        }
        Message::BufferAck { viewid, from, upto } => {
            e.u64(22);
            enc_viewid(&mut e, *viewid);
            e.u64(from.0);
            e.u64(upto.0);
        }
        Message::ImAlive { from, viewid } => {
            e.u64(23);
            e.u64(from.0);
            enc_viewid(&mut e, *viewid);
        }
        Message::Invite { viewid, manager } => {
            e.u64(24);
            enc_viewid(&mut e, *viewid);
            e.u64(manager.0);
        }
        Message::AcceptNormal { viewid, from, latest, was_primary } => {
            e.u64(25);
            enc_viewid(&mut e, *viewid);
            e.u64(from.0);
            enc_viewstamp(&mut e, *latest);
            enc_bool(&mut e, *was_primary);
        }
        Message::AcceptCrashed { viewid, from, stable_viewid } => {
            e.u64(26);
            enc_viewid(&mut e, *viewid);
            e.u64(from.0);
            enc_viewid(&mut e, *stable_viewid);
        }
        Message::InitView { viewid, view } => {
            e.u64(27);
            enc_viewid(&mut e, *viewid);
            enc_view(&mut e, view);
        }
        Message::GetChunk { digest, index, reply_to } => {
            e.u64(28);
            enc_digest(&mut e, *digest);
            e.u64(u64::from(*index));
            e.u64(reply_to.0);
        }
        Message::Chunk { digest, index, total, crc, payload } => {
            e.u64(29);
            enc_digest(&mut e, *digest);
            e.u64(u64::from(*index));
            e.u64(u64::from(*total));
            e.u64(u64::from(*crc));
            e.bytes(payload);
        }
        Message::LeaseGrant { viewid, from } => {
            e.u64(30);
            enc_viewid(&mut e, *viewid);
            e.u64(from.0);
        }
        Message::LeaseRevoke { viewid, from } => {
            e.u64(31);
            enc_viewid(&mut e, *viewid);
            e.u64(from.0);
        }
        Message::Horizon { done_below } => {
            e.u64(32);
            enc_aid(&mut e, *done_below);
        }
        Message::PrepareCommit { aid, pset, coordinator } => {
            e.u64(33);
            enc_aid(&mut e, *aid);
            enc_pset(&mut e, pset);
            e.u64(coordinator.0);
        }
    }
    e.buf
}

/// Decode a `u64` field that must fit in a `u32` (chunk indexes, counts,
/// and CRCs are 32-bit on the wire's host types).
fn dec_u32(d: &mut Decoder<'_>, context: &'static str) -> Result<u32, DecodeError> {
    u32::try_from(d.u64(context)?).map_err(|_| DecodeError { context })
}

/// Decode a byte string produced by [`encode_message`].
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, trailing garbage, unknown tags,
/// or payloads violating protocol invariants (a corrupt frame that slips
/// past the transport CRC must fail, never load garbage).
pub fn decode_message(buf: &[u8]) -> Result<Message, DecodeError> {
    let mut d = Decoder::new(buf);
    let msg = match d.u64("message.tag")? {
        0 => Message::Call {
            viewid: dec_viewid(&mut d)?,
            call_id: dec_call_id(&mut d)?,
            proc: dec_string(&mut d, "call.proc")?,
            args: d.bytes("call.args")?.to_vec(),
        },
        1 => {
            Message::CallReply { call_id: dec_call_id(&mut d)?, outcome: dec_call_outcome(&mut d)? }
        }
        2 => Message::CallReject { call_id: dec_call_id(&mut d)?, newer: dec_newer(&mut d)? },
        3 => Message::Prepare {
            aid: dec_aid(&mut d)?,
            pset: dec_pset(&mut d)?,
            coordinator: Mid(d.u64("prepare.coordinator")?),
        },
        4 => Message::PrepareOk {
            aid: dec_aid(&mut d)?,
            group: GroupId(d.u64("prepare_ok.group")?),
            read_only: dec_bool(&mut d, "prepare_ok.read_only")?,
        },
        5 => Message::PrepareRefuse {
            aid: dec_aid(&mut d)?,
            group: GroupId(d.u64("prepare_refuse.group")?),
        },
        6 => Message::Commit {
            aid: dec_aid(&mut d)?,
            coordinator: Mid(d.u64("commit.coordinator")?),
        },
        7 => Message::CommitDone {
            aid: dec_aid(&mut d)?,
            group: GroupId(d.u64("commit_done.group")?),
        },
        8 => Message::Abort { aid: dec_aid(&mut d)? },
        9 => Message::Redirect {
            group: GroupId(d.u64("redirect.group")?),
            newer: dec_newer(&mut d)?,
        },
        10 => Message::Query { aid: dec_aid(&mut d)?, reply_to: Mid(d.u64("query.reply_to")?) },
        11 => Message::QueryReply { aid: dec_aid(&mut d)?, outcome: dec_query_outcome(&mut d)? },
        12 => Message::ClientBegin {
            req: d.u64("client_begin.req")?,
            reply_to: Mid(d.u64("client_begin.reply_to")?),
        },
        13 => {
            Message::ClientBeginAck { req: d.u64("client_begin_ack.req")?, aid: dec_aid(&mut d)? }
        }
        14 => Message::ClientCommit {
            aid: dec_aid(&mut d)?,
            pset: dec_pset(&mut d)?,
            reply_to: Mid(d.u64("client_commit.reply_to")?),
        },
        15 => Message::ClientAbort { aid: dec_aid(&mut d)? },
        16 => Message::ClientOutcome {
            aid: dec_aid(&mut d)?,
            committed: dec_bool(&mut d, "client_outcome.committed")?,
        },
        17 => Message::ClientPing {
            aid: dec_aid(&mut d)?,
            reply_to: Mid(d.u64("client_ping.reply_to")?),
        },
        18 => Message::ClientPong { aid: dec_aid(&mut d)? },
        19 => Message::Probe {
            group: GroupId(d.u64("probe.group")?),
            reply_to: Mid(d.u64("probe.reply_to")?),
        },
        20 => Message::ProbeReply {
            group: GroupId(d.u64("probe_reply.group")?),
            viewid: dec_viewid(&mut d)?,
            view: dec_view(&mut d)?,
        },
        21 => {
            let viewid = dec_viewid(&mut d)?;
            let from = Mid(d.u64("buffer_send.from")?);
            let n = d.len("buffer_send.records.len")?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(dec_event_record(&mut d)?);
            }
            Message::BufferSend { viewid, from, records: records.into() }
        }
        22 => Message::BufferAck {
            viewid: dec_viewid(&mut d)?,
            from: Mid(d.u64("buffer_ack.from")?),
            upto: Timestamp(d.u64("buffer_ack.upto")?),
        },
        23 => Message::ImAlive { from: Mid(d.u64("im_alive.from")?), viewid: dec_viewid(&mut d)? },
        24 => {
            Message::Invite { viewid: dec_viewid(&mut d)?, manager: Mid(d.u64("invite.manager")?) }
        }
        25 => Message::AcceptNormal {
            viewid: dec_viewid(&mut d)?,
            from: Mid(d.u64("accept_normal.from")?),
            latest: dec_viewstamp(&mut d)?,
            was_primary: dec_bool(&mut d, "accept_normal.was_primary")?,
        },
        26 => Message::AcceptCrashed {
            viewid: dec_viewid(&mut d)?,
            from: Mid(d.u64("accept_crashed.from")?),
            stable_viewid: dec_viewid(&mut d)?,
        },
        27 => Message::InitView { viewid: dec_viewid(&mut d)?, view: dec_view(&mut d)? },
        28 => Message::GetChunk {
            digest: dec_digest(&mut d)?,
            index: dec_u32(&mut d, "get_chunk.index")?,
            reply_to: Mid(d.u64("get_chunk.reply_to")?),
        },
        29 => Message::Chunk {
            digest: dec_digest(&mut d)?,
            index: dec_u32(&mut d, "chunk.index")?,
            total: dec_u32(&mut d, "chunk.total")?,
            crc: dec_u32(&mut d, "chunk.crc")?,
            payload: d.bytes("chunk.payload")?.to_vec(),
        },
        30 => Message::LeaseGrant {
            viewid: dec_viewid(&mut d)?,
            from: Mid(d.u64("lease_grant.from")?),
        },
        31 => Message::LeaseRevoke {
            viewid: dec_viewid(&mut d)?,
            from: Mid(d.u64("lease_revoke.from")?),
        },
        32 => Message::Horizon { done_below: dec_aid(&mut d)? },
        33 => Message::PrepareCommit {
            aid: dec_aid(&mut d)?,
            pset: dec_pset(&mut d)?,
            coordinator: Mid(d.u64("prepare_commit.coordinator")?),
        },
        _ => return Err(DecodeError { context: "message.tag" }),
    };
    if !d.is_exhausted() {
        return Err(DecodeError { context: "message.trailing" });
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Timestamp;

    fn vid(c: u64) -> ViewId {
        ViewId { counter: c, manager: Mid(c % 3) }
    }

    fn vs(c: u64, ts: u64) -> Viewstamp {
        Viewstamp::new(vid(c), Timestamp(ts))
    }

    fn aid(seq: u64) -> Aid {
        Aid { group: GroupId(7), view: vid(1), seq }
    }

    fn sample_call(seq: u64) -> CompletedCall {
        CompletedCall {
            vs: vs(1, seq + 1),
            call_id: CallId { aid: aid(0), seq },
            accesses: vec![
                ObjectAccess {
                    oid: ObjectId(4),
                    mode: LockMode::Write,
                    written: Some(Value::from(&b"written"[..])),
                    read_version: None,
                },
                ObjectAccess {
                    oid: ObjectId(5),
                    mode: LockMode::Read,
                    written: None,
                    read_version: Some(9),
                },
            ],
            result: Value::from(&b"result"[..]),
            nested: vec![(GroupId(3), vs(2, 8))],
        }
    }

    fn sample_gstate() -> GroupState {
        let mut g = GroupState::with_objects([
            (ObjectId(1), Value::from(&b"one"[..])),
            (ObjectId(2), Value::empty()),
        ]);
        g.store_call(aid(0), sample_call(0));
        g.store_call(aid(0), sample_call(1));
        g.set_status(aid(1), TxnStatus::Committing { plist: vec![GroupId(7), GroupId(8)] });
        g.set_status(aid(2), TxnStatus::Aborted);
        g.drop_calls(aid(0), &[CallId { aid: aid(0), seq: 99 }]);
        let foreign = |seq| Aid { group: GroupId(4), view: vid(1), seq };
        g.apply_record(GroupId(3), &EventKind::Horizon { done_below: foreign(2) });
        for seq in [5, 6, 9] {
            g.apply_record(GroupId(3), &EventKind::Committed { aid: foreign(seq) });
        }
        g.apply_record(GroupId(3), &EventKind::OnePhaseCommitted { aid: foreign(11) });
        assert_eq!(g.finished_runs(), 2);
        assert!(g.one_phase_committed(foreign(11)));
        g
    }

    fn roundtrip(event: &DurableEvent) -> DurableEvent {
        decode_durable_event(&encode_durable_event(event)).expect("roundtrip decodes")
    }

    fn sample_newview() -> EventKind {
        let history: History = [vs(0, 4), vs(2, 0)].into_iter().collect();
        let snap = crate::snapshot::Snapshot::materialize(vs(0, 4), &history, &sample_gstate());
        EventKind::NewView {
            view: View::new(Mid(1), vec![Mid(0), Mid(2)]),
            history,
            base: snap.to_ref(),
            delta: vec![
                EventRecord { vs: vs(0, 5), kind: EventKind::Committed { aid: aid(1) } },
                EventRecord {
                    vs: vs(0, 6),
                    kind: EventKind::CompletedCall { aid: aid(1), record: sample_call(0) },
                },
            ]
            .into(),
        }
    }

    #[test]
    fn record_roundtrips() {
        for kind in [
            EventKind::CompletedCall { aid: aid(0), record: sample_call(2) },
            EventKind::Committing { aid: aid(1), plist: vec![GroupId(1)] },
            EventKind::Committing { aid: aid(1), plist: vec![] },
            EventKind::Committed { aid: aid(2) },
            EventKind::Aborted { aid: aid(3) },
            EventKind::Done { aid: aid(4) },
            EventKind::CallsDropped { aid: aid(5), dropped: vec![CallId { aid: aid(5), seq: 1 }] },
            EventKind::Horizon { done_below: aid(6) },
            EventKind::OnePhaseCommitted { aid: aid(7) },
            sample_newview(),
        ] {
            let event = DurableEvent::Record(EventRecord { vs: vs(2, 5), kind });
            assert_eq!(roundtrip(&event), event);
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let history: History = [vs(0, 4), vs(2, 0)].into_iter().collect();
        let bytes = encode_snapshot(vs(2, 0), &history, &sample_gstate());
        let (dvs, dhistory, dgstate) = decode_snapshot(&bytes).expect("snapshot decodes");
        assert_eq!(dvs, vs(2, 0));
        assert_eq!(dhistory, history);
        assert_eq!(dgstate, sample_gstate());
        for cut in [0, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn nested_newview_in_delta_is_rejected() {
        // A newview record must never carry another newview in its delta;
        // hand-craft one and check the decoder refuses before recursing.
        let mut e = Encoder::default();
        e.u64(0); // DurableEvent::Record
        enc_viewstamp(&mut e, vs(2, 5));
        e.u64(6); // EventKind::NewView
        enc_view(&mut e, &View::new(Mid(1), vec![Mid(0)]));
        e.u64(1); // history.len
        enc_viewstamp(&mut e, vs(2, 0));
        enc_digest(&mut e, SnapDigest::of(b"whatever"));
        enc_viewstamp(&mut e, vs(2, 0));
        e.u64(1); // delta.len
        enc_viewstamp(&mut e, vs(2, 1));
        e.u64(6); // nested NewView tag
        assert_eq!(decode_durable_event(&e.buf).unwrap_err().context, "newview.delta.kind");
    }

    #[test]
    fn stable_viewid_and_sync_roundtrip() {
        let event = DurableEvent::StableViewId(vid(9));
        assert_eq!(roundtrip(&event), event);
        assert_eq!(roundtrip(&DurableEvent::Sync), DurableEvent::Sync);
    }

    #[test]
    fn checkpoint_roundtrips() {
        let event = DurableEvent::Checkpoint(Checkpoint {
            viewid: vid(2),
            view: View::new(Mid(2), vec![Mid(0), Mid(1)]),
            history: [vs(0, 3), vs(1, 7), vs(2, 1)].into_iter().collect(),
            gstate: sample_gstate(),
        });
        assert_eq!(roundtrip(&event), event);
    }

    #[test]
    fn truncation_fails() {
        let bytes = encode_durable_event(&DurableEvent::Checkpoint(Checkpoint {
            viewid: vid(2),
            view: View::new(Mid(2), vec![Mid(0)]),
            history: [vs(2, 1)].into_iter().collect(),
            gstate: sample_gstate(),
        }));
        for cut in [1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_durable_event(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_garbage_fails() {
        let mut bytes = encode_durable_event(&DurableEvent::Sync);
        bytes.push(0);
        assert_eq!(decode_durable_event(&bytes).unwrap_err().context, "durable.trailing");
    }

    #[test]
    fn unknown_tag_fails() {
        let bytes = 99u64.to_le_bytes().to_vec();
        assert!(decode_durable_event(&bytes).is_err());
    }

    #[test]
    fn invalid_history_order_fails() {
        // Hand-craft a StableViewId… actually a NewView record whose
        // history entries regress; the decoder must reject rather than
        // let `History` panic.
        let mut e = Encoder::default();
        e.u64(0); // DurableEvent::Record
        enc_viewstamp(&mut e, vs(2, 5));
        e.u64(6); // EventKind::NewView
        enc_view(&mut e, &View::new(Mid(1), vec![Mid(0)]));
        e.u64(2); // history.len
        enc_viewstamp(&mut e, vs(3, 1));
        enc_viewstamp(&mut e, vs(1, 1)); // regresses — decode stops here
        assert_eq!(decode_durable_event(&e.buf).unwrap_err().context, "history.order");
    }

    #[test]
    fn absurd_length_prefix_fails_without_allocating() {
        let mut e = Encoder::default();
        e.u64(0); // Record
        enc_viewstamp(&mut e, vs(2, 5));
        e.u64(5); // CallsDropped
        enc_aid(&mut e, aid(0));
        e.u64(u64::MAX); // dropped.len — absurd
        assert!(decode_durable_event(&e.buf).is_err());
    }

    // ------------------------------------------------- message codec

    /// One instance of every `Message` variant, with non-trivial payloads
    /// where the variant has them.
    fn sample_messages() -> Vec<Message> {
        use crate::view::View;
        let view = View::new(Mid(1), vec![Mid(0), Mid(2)]);
        let ps: PSet = [(GroupId(1), vs(1, 2)), (GroupId(2), vs(1, 4)), (GroupId(1), vs(2, 1))]
            .into_iter()
            .collect();
        let call_id = CallId { aid: aid(3), seq: 7 };
        vec![
            Message::Call {
                viewid: vid(1),
                call_id,
                proc: "transfer".into(),
                args: vec![0, 1, 2, 255],
            },
            Message::CallReply {
                call_id,
                outcome: CallOutcome::Ok { result: vec![9, 9], pset: ps.clone() },
            },
            Message::CallReply { call_id, outcome: CallOutcome::Refused(CallRefusal::LockTimeout) },
            Message::CallReply {
                call_id,
                outcome: CallOutcome::Refused(CallRefusal::Application("no such proc".into())),
            },
            Message::CallReject { call_id, newer: None },
            Message::CallReject { call_id, newer: Some((vid(4), view.clone())) },
            Message::Prepare { aid: aid(1), pset: ps.clone(), coordinator: Mid(5) },
            Message::PrepareCommit { aid: aid(1), pset: ps.clone(), coordinator: Mid(5) },
            Message::PrepareOk { aid: aid(1), group: GroupId(2), read_only: true },
            Message::PrepareRefuse { aid: aid(1), group: GroupId(2) },
            Message::Commit { aid: aid(1), coordinator: Mid(5) },
            Message::CommitDone { aid: aid(1), group: GroupId(2) },
            Message::Abort { aid: aid(1) },
            Message::Redirect { group: GroupId(2), newer: Some((vid(3), view.clone())) },
            Message::Query { aid: aid(1), reply_to: Mid(4) },
            Message::QueryReply { aid: aid(1), outcome: QueryOutcome::Unknown },
            Message::Horizon { done_below: aid(4) },
            Message::ClientBegin { req: 42, reply_to: Mid(9) },
            Message::ClientBeginAck { req: 42, aid: aid(2) },
            Message::ClientCommit { aid: aid(2), pset: ps, reply_to: Mid(9) },
            Message::ClientAbort { aid: aid(2) },
            Message::ClientOutcome { aid: aid(2), committed: true },
            Message::ClientPing { aid: aid(2), reply_to: Mid(9) },
            Message::ClientPong { aid: aid(2) },
            Message::Probe { group: GroupId(2), reply_to: Mid(9) },
            Message::ProbeReply { group: GroupId(2), viewid: vid(2), view: view.clone() },
            Message::BufferSend {
                viewid: vid(2),
                from: Mid(1),
                records: vec![
                    EventRecord { vs: vs(2, 1), kind: EventKind::Committed { aid: aid(1) } },
                    EventRecord {
                        vs: vs(2, 2),
                        kind: EventKind::CompletedCall { aid: aid(1), record: sample_call(0) },
                    },
                ]
                .into(),
            },
            Message::BufferAck { viewid: vid(2), from: Mid(2), upto: Timestamp(17) },
            Message::ImAlive { from: Mid(0), viewid: vid(2) },
            Message::Invite { viewid: vid(5), manager: Mid(2) },
            Message::AcceptNormal {
                viewid: vid(5),
                from: Mid(0),
                latest: vs(2, 9),
                was_primary: false,
            },
            Message::AcceptCrashed { viewid: vid(5), from: Mid(0), stable_viewid: vid(2) },
            Message::InitView { viewid: vid(5), view },
            Message::BufferSend {
                viewid: vid(2),
                from: Mid(1),
                records: vec![EventRecord { vs: vs(2, 1), kind: sample_newview() }].into(),
            },
            Message::GetChunk { digest: SnapDigest::of(b"snapshot"), index: 3, reply_to: Mid(2) },
            Message::Chunk {
                digest: SnapDigest::of(b"snapshot"),
                index: 3,
                total: 9,
                crc: 0xdead_beef,
                payload: vec![1, 2, 3, 4, 5],
            },
            Message::LeaseGrant { viewid: vid(2), from: Mid(1) },
            Message::LeaseRevoke { viewid: vid(2), from: Mid(0) },
        ]
    }

    #[test]
    fn every_message_variant_roundtrips() {
        for msg in sample_messages() {
            let decoded = decode_message(&encode_message(&msg)).expect("roundtrip decodes");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn message_truncation_fails() {
        for msg in sample_messages() {
            let bytes = encode_message(&msg);
            for cut in [0, 1, 8, bytes.len() / 2, bytes.len().saturating_sub(1)] {
                if cut < bytes.len() {
                    assert!(
                        decode_message(&bytes[..cut]).is_err(),
                        "cut at {cut} of {} must fail",
                        msg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn message_trailing_garbage_fails() {
        let mut bytes = encode_message(&Message::Abort { aid: aid(1) });
        bytes.push(0);
        assert_eq!(decode_message(&bytes).unwrap_err().context, "message.trailing");
    }

    #[test]
    fn message_unknown_tag_fails() {
        assert!(decode_message(&999u64.to_le_bytes()).is_err());
    }
}

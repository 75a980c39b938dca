//! Per-layer metrics of the traced run.
//!
//! Two sources. Counter deltas come from the traced cluster's own
//! `Metrics` over the measured window (or over the fault phase, for
//! view-change and reconnect counts). Costs per operation come from
//! timing calls into each layer's public functions from here, with
//! inputs shaped like the run's traffic: its objects, read share,
//! message mix, group-commit batch size, WAL length and latencies.
//! Every timed round is a span, kept in memory with the run's submit
//! and crash/recover spans and written out at the end.
//!
//! The attribution multiplies each timed layer's cost per operation by
//! its operations per transaction and compares the sum with the
//! measured CPU and median latency per transaction. What is left over
//! is printed as a residual, with no target.

use crate::drive::{self, RunResult, Span, GROUP_COMMIT, SERVER, SERVERS};
use crate::env::median;
use crate::workload::{self, Op, Rng};
use crate::{percentile, window_costs, Args, Metric};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vsr_app::counter;
use vsr_core::buffer::CommBuffer;
use vsr_core::durable::DurableEvent;
use vsr_core::event::{EventKind, EventRecord};
use vsr_core::gstate::{CompletedCall, GroupState, LockMode, ObjectAccess, Value};
use vsr_core::history::History;
use vsr_core::locks::LockTable;
use vsr_core::messages::{CallOutcome, Message, QueryOutcome};
use vsr_core::pset::PSet;
use vsr_core::snapshot::{SnapDigest, Snapshot};
use vsr_core::types::{Aid, CallId, Mid, ObjectId, Timestamp, ViewId, Viewstamp};
use vsr_core::view::View;
use vsr_core::wire;
use vsr_net::{frame_message, BoundedQueue, DropCounters, FrameBuf};
use vsr_obs::{Histogram, Metrics};
use vsr_store::{FileStore, Store};

/// Timed rounds per layer; each round is one span.
const ROUNDS: usize = 64;

/// Longest WAL the recovery timing replays.
const MAX_RECOVER_RECORDS: u64 = 200_000;

/// Spans of the layer timings.
#[derive(Debug, Default)]
struct Timer {
    epoch: Option<Instant>,
    spans: Vec<(&'static str, u64, u64, usize)>,
}

impl Timer {
    /// Keep a span of `ops` calls of `layer` that started at `t0` and
    /// took `dur`.
    fn record(&mut self, layer: &'static str, t0: Instant, dur: Duration, ops: usize) {
        let epoch = *self.epoch.get_or_insert(t0);
        self.spans.push((
            layer,
            t0.duration_since(epoch).as_nanos() as u64,
            dur.as_nanos() as u64,
            ops,
        ));
    }

    /// Time `ROUNDS` rounds of `ops` calls of `f` (passed the call's
    /// index) and return the median cost of one call in nanoseconds.
    fn per_op(&mut self, layer: &'static str, ops: usize, mut f: impl FnMut(usize)) -> f64 {
        let mut costs: Vec<f64> = (0..ROUNDS)
            .map(|round| {
                let t0 = Instant::now();
                for i in 0..ops {
                    f(round * ops + i);
                }
                let dur = t0.elapsed();
                self.record(layer, t0, dur, ops);
                dur.as_nanos() as f64 / ops as f64
            })
            .collect();
        median(&mut costs)
    }
}

fn aid(seq: u64) -> Aid {
    Aid { group: drive::CLIENT, view: ViewId::initial(Mid(10)), seq }
}

fn counter_value(v: u64) -> Value {
    Value(v.to_le_bytes().to_vec())
}

/// A completed-call record like the ones a counter increment produces.
fn completed_call(seq: u64, object: u64) -> CompletedCall {
    let view = ViewId::initial(SERVERS[0]);
    CompletedCall {
        vs: Viewstamp::new(view, Timestamp(seq + 1)),
        call_id: CallId { aid: aid(seq), seq: 0 },
        accesses: vec![ObjectAccess {
            oid: ObjectId(object),
            mode: LockMode::Write,
            written: Some(counter_value(seq)),
            read_version: None,
        }],
        result: counter_value(seq),
        nested: Vec::new(),
    }
}

/// A WAL record like the ones a counter increment appends.
fn wal_record(seq: u64, object: u64) -> DurableEvent {
    DurableEvent::Record(EventRecord {
        vs: Viewstamp::new(ViewId::initial(SERVERS[0]), Timestamp(seq + 1)),
        kind: EventKind::CompletedCall { aid: aid(seq), record: completed_call(seq, object) },
    })
}

/// One message of kind `name` shaped like the workload's, or `None` for
/// kinds the normal case does not send.
fn sample_message(name: &str, seq: u64, object: u64) -> Option<Message> {
    let view = ViewId::initial(SERVERS[0]);
    let a = aid(seq);
    let vs = Viewstamp::new(view, Timestamp(seq + 1));
    let mut pset = PSet::new();
    pset.insert(SERVER, vs);
    let call_id = CallId { aid: a, seq: 0 };
    let op = counter::incr(SERVER, object, 1);
    Some(match name {
        "call" => Message::Call { viewid: view, call_id, proc: op.proc, args: op.args },
        "call-reply" => Message::CallReply {
            call_id,
            outcome: CallOutcome::Ok { result: counter_value(seq).0, pset },
        },
        "prepare" => Message::Prepare { aid: a, pset, coordinator: Mid(10) },
        "prepare-ok" => Message::PrepareOk { aid: a, group: SERVER, read_only: false },
        "commit" => Message::Commit { aid: a, coordinator: Mid(10) },
        "commit-done" => Message::CommitDone { aid: a, group: SERVER },
        "abort" => Message::Abort { aid: a },
        "query" => Message::Query { aid: a, reply_to: Mid(10) },
        "query-reply" => Message::QueryReply { aid: a, outcome: QueryOutcome::Committed },
        "buffer-send" => Message::BufferSend {
            viewid: view,
            from: SERVERS[0],
            records: Arc::from(vec![
                EventRecord {
                    vs,
                    kind: EventKind::CompletedCall { aid: a, record: completed_call(seq, object) },
                },
                EventRecord {
                    vs: Viewstamp::new(view, Timestamp(seq + 2)),
                    kind: EventKind::Committed { aid: a },
                },
            ]),
        },
        "buffer-ack" => Message::BufferAck { viewid: view, from: SERVERS[1], upto: vs.ts },
        "im-alive" => Message::ImAlive { from: SERVERS[1], viewid: view },
        "lease-grant" => Message::LeaseGrant { viewid: view, from: SERVERS[1] },
        "lease-revoke" => Message::LeaseRevoke { viewid: view, from: SERVERS[0] },
        "invite" => Message::Invite { viewid: view, manager: SERVERS[1] },
        "accept-normal" => {
            Message::AcceptNormal { viewid: view, from: SERVERS[2], latest: vs, was_primary: false }
        }
        "accept-crashed" => {
            Message::AcceptCrashed { viewid: view, from: SERVERS[0], stable_viewid: view }
        }
        "init-view" => Message::InitView {
            viewid: view,
            view: View::new(SERVERS[1], vec![SERVERS[0], SERVERS[2]]),
        },
        _ => return None,
    })
}

/// 1024 messages drawn in proportion to the window's per-kind counts,
/// and the share of the window's messages whose kind could be drawn.
fn message_mix(sent: &BTreeMap<&str, u64>, seed: u64, objects: &[u64]) -> (Vec<Message>, f64) {
    let counts: Vec<(&str, u64)> = sent
        .iter()
        .filter(|(name, _)| sample_message(name, 0, 1).is_some())
        .map(|(name, n)| (*name, *n))
        .collect();
    let covered: u64 = counts.iter().map(|(_, n)| n).sum();
    let total = sent.values().sum::<u64>().max(1);
    let mut rng = Rng::new(seed, u64::from_le_bytes(*b"msg-mix\0"));
    let msgs = (0..1024u64)
        .filter_map(|i| {
            let mut pick = rng.below(covered.max(1));
            let name = counts.iter().find(|(_, n)| {
                let hit = pick < *n;
                pick = pick.saturating_sub(*n);
                hit
            })?;
            let object = objects[rng.below(objects.len() as u64) as usize];
            sample_message(name.0, i, object)
        })
        .collect();
    (msgs, covered as f64 / total as f64)
}

/// Counter deltas between two metric snapshots.
struct Delta<'a> {
    from: &'a Metrics,
    to: &'a Metrics,
}

impl Delta<'_> {
    fn of(&self, f: impl Fn(&Metrics) -> u64) -> f64 {
        f(self.to).saturating_sub(f(self.from)) as f64
    }

    fn msgs(&self, name: &str) -> f64 {
        let get = |m: &Metrics| m.msgs.get(name).copied().unwrap_or(0);
        get(self.to).saturating_sub(get(self.from)) as f64
    }

    /// Messages sent in the interval, by name.
    fn sent(&self) -> BTreeMap<&'static str, u64> {
        self.to.msgs.keys().map(|&name| (name, self.msgs(name) as u64)).collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Cost of one mailbox hop: push on this thread, `recv_timeout` on
/// another, measured as half a ping-pong round trip.
fn mailbox_hop_ns(timer: &mut Timer) -> f64 {
    let ping = BoundedQueue::new(16, DropCounters::new());
    let pong = BoundedQueue::new(16, DropCounters::new());
    let wait = Duration::from_secs(5);
    std::thread::scope(|s| {
        let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
        s.spawn(move || {
            while let Ok(n) = ping2.recv_timeout(wait) {
                if n == u64::MAX {
                    break;
                }
                pong2.push(n);
            }
        });
        let rtt = timer.per_op("runtime.mailbox_hop", 200, |i| {
            ping.push(i as u64);
            black_box(pong.recv_timeout(wait).ok());
        });
        ping.push(u64::MAX);
        rtt / 2.0
    })
}

/// The run's final counters as group state, encoded the way a snapshot
/// encodes it.
fn final_state_bytes(finals: &BTreeMap<u64, u64>) -> usize {
    let state =
        GroupState::with_objects(finals.iter().map(|(&o, &v)| (ObjectId(o), counter_value(v))));
    let vs = Viewstamp::new(ViewId::initial(SERVERS[0]), Timestamp(1));
    Snapshot::materialize(vs, &History::new(), &state).bytes.len()
}

/// Write `records` workload-shaped WAL records into a fresh store in
/// `dir`, then time reopening and recovering it three times (ms).
fn recover_ms(timer: &mut Timer, dir: &Path, records: u64, objects: &[u64]) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("recovery WAL in {}: {e}", dir.display());
    let _ = std::fs::remove_dir_all(dir);
    {
        let mut store = FileStore::open(dir, GROUP_COMMIT).map_err(io)?;
        for seq in 0..records {
            let object = objects[(seq % objects.len() as u64) as usize];
            store.persist(&wal_record(seq, object)).map_err(|e| e.to_string())?;
        }
        store.flush().map_err(|e| e.to_string())?;
    }
    let mut times: Vec<f64> = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut store = FileStore::open(dir, GROUP_COMMIT).map_err(io)?;
        black_box(store.recover(ViewId::initial(SERVERS[0])));
        let dur = t0.elapsed();
        timer.record("store.recover", t0, dur, 1);
        times.push(dur.as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(median(&mut times))
}

/// Append then flush `batch` records per round; returns the median cost
/// of one append and of one flush, in µs.
fn persist_flush_us(
    timer: &mut Timer,
    dir: &Path,
    batch: usize,
    objects: &[u64],
) -> Result<(f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store =
        FileStore::open(dir, GROUP_COMMIT).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut seq = 0u64;
    let mut persist_ns = Vec::with_capacity(ROUNDS);
    let mut flush_ns = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let records: Vec<DurableEvent> = (0..batch)
            .map(|_| {
                seq += 1;
                wal_record(seq, objects[(seq % objects.len() as u64) as usize])
            })
            .collect();
        let t0 = Instant::now();
        for r in &records {
            store.persist(r).map_err(|e| e.to_string())?;
        }
        let t1 = Instant::now();
        store.flush().map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        timer.record("store.persist", t0, t1 - t0, batch);
        timer.record("store.flush", t1, t2 - t1, 1);
        persist_ns.push((t1 - t0).as_nanos() as f64 / batch as f64);
        flush_ns.push((t2 - t1).as_nanos() as f64);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok((median(&mut persist_ns) / 1e3, median(&mut flush_ns) / 1e3))
}

/// Costs per operation of every timed layer.
struct Costs {
    mailbox_hop_ns: f64,
    buffer_ns: f64,
    locks_ns: f64,
    encode_ns: f64,
    decode_ns: f64,
    frame_ns: f64,
    persist_us: f64,
    flush_us: f64,
    recover_ms: f64,
    digest_ns_per_kb: f64,
    digest_ns: f64,
    hist_ns: f64,
    mix_coverage: f64,
}

fn time_layers(
    timer: &mut Timer,
    args: &Args,
    scratch: &Path,
    run: &RunResult,
    window: &Delta<'_>,
) -> Result<Costs, String> {
    let objects = workload::objects(args.workload);
    let script = workload::script(args.workload, args.seed, 0, 0);
    let mailbox_hop_ns = mailbox_hop_ns(timer);

    let mut buffer = CommBuffer::<u32>::new(ViewId::initial(SERVERS[0]), &SERVERS[1..], 1);
    let buffer_ns = timer.per_op("core.buffer", 256, |i| {
        let op = script[i % script.len()];
        let a = aid(i as u64);
        let vs = buffer.add(EventKind::CompletedCall {
            aid: a,
            record: completed_call(i as u64, op.object()),
        });
        buffer.force_to(vs, 0);
        for &backup in &SERVERS[1..] {
            black_box(buffer.on_ack(backup, vs.ts));
        }
        if i % 256 == 255 {
            buffer.truncate_acked();
        }
    });

    let mut locks = LockTable::new();
    let locks_ns = timer.per_op("core.locks", 256, |i| {
        let a = aid(i as u64);
        match script[i % script.len()] {
            Op::Incr { object, .. } => {
                locks.acquire_write(a, ObjectId(object));
                locks.set_tentative(a, ObjectId(object), counter_value(i as u64));
            }
            Op::Read { object } => locks.acquire_read(a, ObjectId(object)),
        }
        locks.release_all(a);
    });

    let (msgs, mix_coverage) = message_mix(&window.sent(), args.seed, &objects);
    let (encode_ns, decode_ns, frame_ns) = if msgs.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        let encode_ns = timer.per_op("core.wire_encode", 256, |i| {
            black_box(wire::encode_message(&msgs[i % msgs.len()]));
        });
        let encoded: Vec<Vec<u8>> = msgs.iter().map(wire::encode_message).collect();
        let decode_ns = timer.per_op("core.wire_decode", 256, |i| {
            black_box(wire::decode_message(&encoded[i % encoded.len()]).ok());
        });
        let mut frames = FrameBuf::new();
        let frame_ns = timer.per_op("net.frame", 256, |i| {
            frames.extend(&frame_message(SERVERS[0], &msgs[i % msgs.len()]));
            black_box(frames.next_frame().ok());
        });
        (encode_ns, decode_ns, frame_ns)
    };

    let batch = run.metrics[1]
        .records_per_fsync
        .since(&run.metrics[0].records_per_fsync)
        .mean()
        .unwrap_or(1.0)
        .round()
        .max(1.0) as usize;
    let wal_dir = scratch.join(format!("micro-wal-{}", std::process::id()));
    let (persist_us, flush_us) = persist_flush_us(timer, &wal_dir, batch, &objects)?;
    let wal_records = if run.wal_records > 0 { run.wal_records } else { run.metrics[2].committed };
    let recover_ms = recover_ms(timer, &wal_dir, wal_records.min(MAX_RECOVER_RECORDS), &objects)?;

    let state = vec![0x5au8; final_state_bytes(&run.finals).max(1024)];
    let digest_ns = timer.per_op("snap.digest", 16, |_| {
        black_box(SnapDigest::of(black_box(&state)));
    });

    let latencies: Vec<u64> = run.samples.iter().map(|s| s.latency_ns / 1000).collect();
    let mut hist = Histogram::new();
    let hist_ns = if latencies.is_empty() {
        0.0
    } else {
        timer.per_op("obs.hist_record", 1024, |i| hist.record(latencies[i % latencies.len()]))
    };
    black_box(hist);

    Ok(Costs {
        mailbox_hop_ns,
        buffer_ns,
        locks_ns,
        encode_ns,
        decode_ns,
        frame_ns,
        persist_us,
        flush_us,
        recover_ms,
        digest_ns_per_kb: digest_ns * 1024.0 / state.len() as f64,
        digest_ns,
        hist_ns,
        mix_coverage,
    })
}

/// Write every span of the traced run as JSON lines.
fn write_spans(path: &Path, run: &RunResult, timer: &Timer) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &run.samples {
        let kind = if s.read { "read" } else { "write" };
        writeln!(
            out,
            "{{\"span\": \"submit\", \"id\": \"c{}-{}\", \"kind\": \"{kind}\", \"start_ns\": {}, \"dur_ns\": {}}}",
            s.client, s.seq, s.start_ns, s.latency_ns
        )?;
    }
    for Span { name, start_ns, dur_ns } in &run.spans {
        writeln!(out, "{{\"span\": \"{name}\", \"start_ns\": {start_ns}, \"dur_ns\": {dur_ns}}}")?;
    }
    for (layer, start, dur, ops) in &timer.spans {
        writeln!(
            out,
            "{{\"span\": \"{layer}\", \"start_ns\": {start}, \"dur_ns\": {dur}, \"ops\": {ops}}}"
        )?;
    }
    out.flush()
}

/// The per-layer metrics of a traced run, plus the attribution and the
/// tracing overhead against the untraced `baseline`.
pub fn per_layer(
    args: &Args,
    scratch: &Path,
    baseline: &RunResult,
    traced: &RunResult,
) -> Result<Vec<Metric>, String> {
    let [m0, m1, m2] = &traced.metrics;
    let window = Delta { from: m0, to: m1 };
    let fault = Delta { from: m1, to: m2 };
    let whole = Delta { from: m0, to: m2 };
    let txns = window.of(|m| m.committed).max(1.0);
    let mut timer = Timer::default();
    let c = time_layers(&mut timer, args, scratch, traced, &window)?;

    let split = |read: bool| -> f64 {
        let mut lat: Vec<u64> =
            traced.samples.iter().filter(|s| s.read == read).map(|s| s.latency_ns).collect();
        lat.sort_unstable();
        percentile(&lat, 0.5) as f64 / 1e3
    };
    let reads = traced.samples.iter().filter(|s| s.read).count() as f64;
    let msgs_all = window.of(Metrics::total_msgs);
    let frames = window.of(|m| m.net_frames_sent);
    let hist_records =
        |h: fn(&Metrics) -> &Histogram| h(m1).count().saturating_sub(h(m0).count()) as f64;
    let hist_per_txn = 1.0
        + (hist_records(|m| &m.inflight_txns)
            + hist_records(|m| &m.records_per_fsync)
            + hist_records(|m| &m.lease_read_ticks))
            / txns;

    // Where the time goes: operations per transaction × cost per
    // operation, in µs. Framing includes the codec, so the codec is not
    // counted a second time.
    let attribution = [
        ("runtime.mailbox_hop", msgs_all / txns + 1.0, c.mailbox_hop_ns / 1e3),
        ("core.buffer", traced.trace.forces_fired as f64 / txns, c.buffer_ns / 1e3),
        ("core.locks", 1.0, c.locks_ns / 1e3),
        ("net.frame", frames / txns, c.frame_ns / 1e3),
        ("store.persist", window.of(|m| m.disk_appends) / txns, c.persist_us),
        ("store.flush", window.of(|m| m.group_fsyncs) / txns, c.flush_us),
        ("snap.digest", window.of(|m| m.snapshots_taken) / txns, c.digest_ns / 1e3),
        ("obs.hist_record", hist_per_txn, c.hist_ns / 1e3),
    ];
    let explained: f64 = attribution.iter().map(|(_, n, cost)| n * cost).sum();
    let (base_p50, base_cpu) = window_costs(baseline);
    let (p50, cpu) = window_costs(traced);
    println!("where the time goes ({}, per committed transaction):", args.workload);
    for (layer, n, cost) in &attribution {
        println!("  {layer:<20} {n:>10.3} ops x {cost:>10.4} us = {:>10.3} us", n * cost);
    }
    println!(
        "  explained {explained:.3} us; cpu {cpu:.3} us (residual {:.3}); p50 {p50:.3} us (residual {:.3})",
        cpu - explained,
        p50 - explained
    );
    println!(
        "  message-mix coverage {:.4}; trace events in window {:?}",
        c.mix_coverage, traced.trace.by_kind
    );
    println!(
        "tracing overhead: p50 {base_p50:.3} -> {p50:.3} us, cpu {base_cpu:.3} -> {cpu:.3} us per txn"
    );

    let spans = scratch.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    write_spans(&spans, traced, &timer).map_err(|e| format!("write {}: {e}", spans.display()))?;
    println!("spans written to {}", spans.display());

    Ok(vec![
        Metric::new("runtime.mailbox_hop_ns", c.mailbox_hop_ns, "ns"),
        Metric::new("runtime.write_p50_us", split(false), "us"),
        Metric::new("runtime.read_p50_us", split(true), "us"),
        Metric::new(
            "runtime.inflight_txns_mean",
            m1.inflight_txns.since(&m0.inflight_txns).mean().unwrap_or(0.0),
            "count",
        ),
        Metric::new(
            "runtime.mailbox_drops_per_ktxn",
            ratio(
                whole.of(|m| m.mailbox_drops + m.mailbox_rejections) * 1e3,
                whole.of(|m| m.committed),
            ),
            "count/ktxn",
        ),
        Metric::new("core.msgs_per_txn", (msgs_all - window.msgs("im-alive")) / txns, "count/txn"),
        Metric::new("core.fg_msgs_per_txn", window.of(|m| m.foreground_msgs) / txns, "count/txn"),
        Metric::new("core.buffer_sends_per_txn", window.msgs("buffer-send") / txns, "count/txn"),
        Metric::new("core.bytes_per_txn", window.of(Metrics::total_bytes) / txns, "B/txn"),
        Metric::new(
            "core.prepare_wait_share",
            ratio(
                window.of(|m| m.prepares_waited),
                window.of(|m| m.prepares_fast + m.prepares_waited),
            ),
            "share",
        ),
        Metric::new("core.buffer_ns", c.buffer_ns, "ns"),
        Metric::new("core.locks_ns", c.locks_ns, "ns"),
        Metric::new("core.wire_encode_ns", c.encode_ns, "ns"),
        Metric::new("core.wire_decode_ns", c.decode_ns, "ns"),
        Metric::new("core.view_change_attempts", fault.of(|m| m.view_change_attempts), "count"),
        Metric::new("core.view_formations", fault.of(|m| m.view_formations), "count"),
        Metric::new("core.retransmissions", fault.of(|m| m.retransmissions), "count"),
        Metric::new("core.fault_failed_txns", traced.fault.failed() as f64, "count"),
        Metric::new("lease.fast_path_share", ratio(window.of(|m| m.leased_reads), reads), "share"),
        Metric::new(
            "lease.read_rejected_per_kread",
            ratio(window.of(|m| m.lease_read_rejected) * 1e3, reads),
            "count/kread",
        ),
        Metric::new(
            "lease.waits_on_view_change",
            fault.of(|m| m.lease_waits_on_view_change),
            "count",
        ),
        Metric::new("store.persist_us", c.persist_us, "us"),
        Metric::new("store.flush_us", c.flush_us, "us"),
        Metric::new(
            "store.records_per_fsync",
            m1.records_per_fsync.since(&m0.records_per_fsync).mean().unwrap_or(0.0),
            "count",
        ),
        Metric::new("store.fsyncs_per_txn", window.of(|m| m.disk_fsyncs) / txns, "count/txn"),
        Metric::new("store.bytes_per_txn", window.of(|m| m.disk_bytes_written) / txns, "B/txn"),
        Metric::new("store.recover_ms", c.recover_ms, "ms"),
        Metric::new("net.frame_ns", c.frame_ns, "ns"),
        Metric::new("net.frames_per_txn", frames / txns, "count/txn"),
        Metric::new(
            "net.coalesced_share",
            ratio(window.of(|m| m.net_frames_coalesced), frames),
            "share",
        ),
        Metric::new("net.reconnects", fault.of(|m| m.net_reconnects), "count"),
        Metric::new("snap.digest_ns_per_kb", c.digest_ns_per_kb, "ns/KiB"),
        Metric::new("snap.chunks_per_rejoin", fault.of(|m| m.snapshot_chunks_received), "count"),
        Metric::new(
            "snap.snapshots_per_ktxn",
            window.of(|m| m.snapshots_taken) * 1e3 / txns,
            "count/ktxn",
        ),
        Metric::new("obs.hist_record_ns", c.hist_ns, "ns"),
        Metric::new("attr.explained_us_per_txn", explained, "us"),
        Metric::new("attr.residual_cpu_us", cpu - explained, "us"),
        Metric::new("attr.residual_p50_us", p50 - explained, "us"),
        Metric::new("trace.overhead_p50_share", ratio(p50, base_p50) - 1.0, "share"),
        Metric::new("trace.overhead_cpu_share", ratio(cpu, base_cpu) - 1.0, "share"),
    ])
}

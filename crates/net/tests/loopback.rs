//! Integration tests for the TCP transport over real loopback sockets:
//! endpoint-to-endpoint delivery, reconnection after an endpoint dies,
//! bounded-queue overflow, half-open detection, and every chaos-proxy
//! toxic observable from the transport counters.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "these tests drive the transport over real loopback sockets, threads and deadlines"
)]

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vsr_core::messages::Message;
use vsr_core::types::{GroupId, Mid, ViewId};
use vsr_net::socket::DeliverFn;
use vsr_net::{AddrMap, ChaosProxy, Endpoint, NetConfig, NetMetrics};

fn probe(group: u64) -> Message {
    Message::Probe { group: GroupId(group), reply_to: Mid(0) }
}

type Seen = Arc<Mutex<Vec<(Mid, Message)>>>;

fn collector() -> (Seen, DeliverFn) {
    let seen: Seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let deliver: DeliverFn =
        Arc::new(move |from, msg| sink.lock().expect("collector lock").push((from, msg)));
    (seen, deliver)
}

fn wait_until(timeout: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if ready() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    ready()
}

/// Start an endpoint for `mid` from a shared address map.
fn endpoint_from(addrs: &mut AddrMap, mid: Mid, cfg: &NetConfig, deliver: DeliverFn) -> Endpoint {
    let listener = addrs.take_listener(mid).expect("loopback map holds the listener");
    Endpoint::start(
        mid,
        listener,
        &addrs.dial_addrs(),
        cfg.clone(),
        Arc::new(NetMetrics::default()),
        deliver,
    )
    .expect("endpoint starts")
}

#[test]
fn frames_flow_both_ways_with_sender_identity() {
    let a = Mid(1);
    let b = Mid(2);
    let mut addrs = AddrMap::loopback(&[a, b]).expect("bind loopback");
    let cfg = NetConfig::new();
    let (seen_a, deliver_a) = collector();
    let (seen_b, deliver_b) = collector();
    let ep_a = endpoint_from(&mut addrs, a, &cfg, deliver_a);
    let ep_b = endpoint_from(&mut addrs, b, &cfg, deliver_b);

    for i in 0..50 {
        assert!(ep_a.send(b, &probe(i)));
        assert!(ep_b.send(a, &probe(100 + i)));
    }
    assert!(
        wait_until(Duration::from_secs(5), || {
            seen_a.lock().expect("lock").len() == 50 && seen_b.lock().expect("lock").len() == 50
        }),
        "all frames delivered: a={}, b={}",
        seen_a.lock().expect("lock").len(),
        seen_b.lock().expect("lock").len(),
    );
    let at_b = seen_b.lock().expect("lock").clone();
    assert!(at_b.iter().all(|(from, _)| *from == a), "sender mid travels in the frame");
    assert_eq!(at_b[0].1, probe(0), "frames arrive in order per link");
    assert!(ep_a.metrics().snapshot().frames_sent >= 50);
    assert!(ep_b.metrics().snapshot().frames_recvd >= 50);
    // Fresh links: first dials are not reconnects.
    assert_eq!(ep_a.metrics().snapshot().reconnects, 0);
    ep_a.shutdown();
    ep_b.shutdown();
}

#[test]
fn sending_to_an_unknown_peer_is_refused() {
    let a = Mid(1);
    let mut addrs = AddrMap::loopback(&[a]).expect("bind loopback");
    let (_, deliver) = collector();
    let ep = endpoint_from(&mut addrs, a, &NetConfig::new(), deliver);
    assert!(!ep.send(Mid(99), &probe(0)), "no link for an unmapped mid");
}

#[test]
fn peer_restart_reconnects_and_delivery_resumes() {
    let a = Mid(1);
    let b = Mid(2);
    let mut addrs = AddrMap::loopback(&[a, b]).expect("bind loopback");
    let mut cfg = NetConfig::new();
    cfg.reconnect_base_ms = 20;
    let (_, deliver_a) = collector();
    let (seen_b, deliver_b) = collector();
    let ep_a = endpoint_from(&mut addrs, a, &cfg, deliver_a);
    let b_bind = addrs.bind_addr(b).expect("b is mapped");
    let ep_b = endpoint_from(&mut addrs, b, &cfg, deliver_b);

    assert!(ep_a.send(b, &probe(0)));
    assert!(wait_until(Duration::from_secs(5), || !seen_b.lock().expect("lock").is_empty()));

    // Kill b. a's writer sees resets and enters reconnect backoff.
    ep_b.shutdown();
    drop(ep_b);

    // Restart b on the same address (SO_REUSEADDR + bind retry window).
    let (seen_b2, deliver_b2) = collector();
    let ep_b2 = Endpoint::bind(
        b,
        b_bind,
        &addrs.dial_addrs(),
        cfg.clone(),
        Arc::new(NetMetrics::default()),
        deliver_b2,
        Duration::from_secs(5),
    )
    .expect("rebind after restart");

    // Keep offering traffic until the link re-establishes; frames sent
    // into the downtime window are dropped, exactly like the network.
    assert!(
        wait_until(Duration::from_secs(10), || {
            ep_a.send(b, &probe(7));
            !seen_b2.lock().expect("lock").is_empty()
        }),
        "delivery resumed after restart"
    );
    assert!(ep_a.metrics().snapshot().reconnects > 0, "the redial was counted as a reconnect");
    ep_a.shutdown();
    ep_b2.shutdown();
}

#[test]
fn restarted_peer_is_redialled_when_it_connects_and_gets_no_stale_frames() {
    let a = Mid(1);
    let b = Mid(2);
    let mut addrs = AddrMap::loopback(&[a, b]).expect("bind loopback");
    // A first reconnect delay far longer than the test's patience: only
    // the peer's own connection can end a's backoff in time.
    let mut cfg = NetConfig::new();
    cfg.reconnect_base_ms = 3_000;
    let (_, deliver_a) = collector();
    let (seen_b, deliver_b) = collector();
    let ep_a = endpoint_from(&mut addrs, a, &cfg, deliver_a);
    let b_bind = addrs.bind_addr(b).expect("b is mapped");
    let ep_b = endpoint_from(&mut addrs, b, &cfg, deliver_b);
    assert!(wait_until(Duration::from_secs(5), || {
        ep_a.send(b, &probe(1));
        !seen_b.lock().expect("lock").is_empty()
    }));

    // Kill b and keep writing until a's writer has seen the reset and
    // backs off; then queue a frame into the downtime.
    ep_b.shutdown();
    drop(ep_b);
    for _ in 0..10 {
        ep_a.send(b, &probe(1));
        std::thread::sleep(Duration::from_millis(20));
    }
    ep_a.send(b, &probe(3));

    let (seen_b2, deliver_b2) = collector();
    let ep_b2 = Endpoint::bind(
        b,
        b_bind,
        &addrs.dial_addrs(),
        cfg.clone(),
        Arc::new(NetMetrics::default()),
        deliver_b2,
        Duration::from_secs(5),
    )
    .expect("rebind after restart");
    let restarted = Instant::now();
    assert!(ep_b2.send(a, &probe(5)), "the restarted peer dials a");
    assert!(
        wait_until(Duration::from_millis(1_500), || {
            ep_a.send(b, &probe(7));
            !seen_b2.lock().expect("lock").is_empty()
        }),
        "a redialled the restarted peer before its backoff ran out"
    );
    assert!(restarted.elapsed() < Duration::from_millis(1_500));
    let stale = seen_b2
        .lock()
        .expect("lock")
        .iter()
        .filter(|(_, msg)| matches!(msg, Message::Probe { group: GroupId(3), .. }))
        .count();
    assert_eq!(stale, 0, "the frame queued while b was down was dropped");
    ep_a.shutdown();
    ep_b2.shutdown();
}

#[test]
fn full_queue_to_a_dead_peer_drops_oldest_and_never_blocks() {
    let a = Mid(1);
    let b = Mid(2);
    // b has an address but never starts an endpoint: a's link stays in
    // connect/backoff forever while its queue fills.
    let mut addrs = AddrMap::loopback(&[a, b]).expect("bind loopback");
    drop(addrs.take_listener(b)); // close b's port so connects fail fast
    let mut cfg = NetConfig::new();
    cfg.queue_capacity = 8;
    let (_, deliver) = collector();
    let ep = endpoint_from(&mut addrs, a, &cfg, deliver);

    let t0 = Instant::now();
    for i in 0..100 {
        ep.send(b, &probe(i));
    }
    assert!(t0.elapsed() < Duration::from_secs(1), "sends never block on a dead peer");
    let m = ep.metrics().snapshot();
    assert!(m.queue_drops >= 92, "overflow drops counted: {}", m.queue_drops);
    ep.shutdown();
}

#[test]
fn stalled_partial_frame_trips_the_read_deadline() {
    let a = Mid(1);
    let mut addrs = AddrMap::loopback(&[a]).expect("bind loopback");
    let mut cfg = NetConfig::new();
    cfg.read_deadline_ms = 200;
    let (seen, deliver) = collector();
    let metrics = Arc::new(NetMetrics::default());
    let listener = addrs.take_listener(a).expect("listener");
    let ep = Endpoint::start(a, listener, &BTreeMap::new(), cfg, Arc::clone(&metrics), deliver)
        .expect("endpoint starts");

    // A raw client sends half a frame and goes silent: the gray failure
    // the read deadline exists to catch.
    let mut sock = TcpStream::connect(ep.local_addr()).expect("connect");
    sock.write_all(&[64, 0, 0, 0]).expect("half a header");
    assert!(
        wait_until(Duration::from_secs(5), || metrics.deadline_hits.load(Ordering::Relaxed) > 0),
        "reader declared the connection half-open"
    );
    assert!(seen.lock().expect("lock").is_empty(), "no frame was fabricated");
    ep.shutdown();
}

#[test]
fn corrupt_frames_are_rejected_and_the_link_recovers() {
    let a = Mid(1);
    let b = Mid(2);
    let mut addrs = AddrMap::loopback(&[a, b]).expect("bind loopback");
    // Route a→b through a proxy that corrupts one bit per chunk.
    let proxy = ChaosProxy::spawn(addrs.bind_addr(b).expect("b mapped"), 0xC0FFEE).expect("proxy");
    addrs.dial_via(b, proxy.addr());
    let mut cfg = NetConfig::new();
    cfg.reconnect_base_ms = 20;
    let (_, deliver_a) = collector();
    let (seen_b, deliver_b) = collector();
    let b_metrics = Arc::new(NetMetrics::default());
    let ep_a = endpoint_from(&mut addrs, a, &cfg, deliver_a);
    let listener = addrs.take_listener(b).expect("listener");
    let ep_b = Endpoint::start(
        b,
        listener,
        &addrs.dial_addrs(),
        cfg.clone(),
        Arc::clone(&b_metrics),
        deliver_b,
    )
    .expect("endpoint starts");

    proxy.set_corrupt_permille(1000);
    assert!(
        wait_until(Duration::from_secs(10), || {
            ep_a.send(b, &probe(1));
            b_metrics.crc_rejects.load(Ordering::Relaxed) > 0
        }),
        "corrupted frames were rejected by CRC"
    );

    proxy.set_corrupt_permille(0);
    let before = seen_b.lock().expect("lock").len();
    assert!(
        wait_until(Duration::from_secs(10), || {
            ep_a.send(b, &probe(2));
            seen_b.lock().expect("lock").len() > before
        }),
        "clean frames flow again after the corruption stops"
    );
    ep_a.shutdown();
    ep_b.shutdown();
}

#[test]
fn partition_black_holes_then_heals() {
    let a = Mid(1);
    let b = Mid(2);
    let mut addrs = AddrMap::loopback(&[a, b]).expect("bind loopback");
    let proxy = ChaosProxy::spawn(addrs.bind_addr(b).expect("b mapped"), 7).expect("proxy");
    addrs.dial_via(b, proxy.addr());
    let cfg = NetConfig::new();
    let (_, deliver_a) = collector();
    let (seen_b, deliver_b) = collector();
    let ep_a = endpoint_from(&mut addrs, a, &cfg, deliver_a);
    let ep_b = endpoint_from(&mut addrs, b, &cfg, deliver_b);

    assert!(wait_until(Duration::from_secs(5), || {
        ep_a.send(b, &probe(1));
        !seen_b.lock().expect("lock").is_empty()
    }));

    proxy.set_partitioned(true);
    std::thread::sleep(Duration::from_millis(100));
    let at_partition = seen_b.lock().expect("lock").len();
    for i in 0..20 {
        ep_a.send(b, &probe(i));
    }
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        seen_b.lock().expect("lock").len(),
        at_partition,
        "a partitioned link delivers nothing"
    );

    proxy.set_partitioned(false);
    assert!(
        wait_until(Duration::from_secs(10), || {
            ep_a.send(b, &probe(9));
            seen_b.lock().expect("lock").len() > at_partition
        }),
        "delivery resumes once the partition heals"
    );
    ep_a.shutdown();
    ep_b.shutdown();
}

#[test]
fn slow_close_and_loss_force_reconnects_without_losing_the_link() {
    let a = Mid(1);
    let b = Mid(2);
    let mut addrs = AddrMap::loopback(&[a, b]).expect("bind loopback");
    let proxy = ChaosProxy::spawn(addrs.bind_addr(b).expect("b mapped"), 99).expect("proxy");
    addrs.dial_via(b, proxy.addr());
    let mut cfg = NetConfig::new();
    cfg.reconnect_base_ms = 20;
    let (_, deliver_a) = collector();
    let (seen_b, deliver_b) = collector();
    let ep_a = endpoint_from(&mut addrs, a, &cfg, deliver_a);
    let ep_b = endpoint_from(&mut addrs, b, &cfg, deliver_b);

    assert!(wait_until(Duration::from_secs(5), || {
        ep_a.send(b, &probe(1));
        !seen_b.lock().expect("lock").is_empty()
    }));

    // Sever every live proxied connection with a lingering close, then
    // run a lossy phase; the link must keep reconnecting through both.
    proxy.slow_close_all(50);
    proxy.set_loss_permille(300);
    let before = seen_b.lock().expect("lock").len();
    assert!(
        wait_until(Duration::from_secs(15), || {
            ep_a.send(b, &probe(5));
            seen_b.lock().expect("lock").len() > before + 10
        }),
        "frames keep arriving through loss and reconnects"
    );
    assert!(
        ep_a.metrics().snapshot().reconnects > 0,
        "the severed connection forced at least one reconnect"
    );
    proxy.set_loss_permille(0);
    ep_a.shutdown();
    ep_b.shutdown();
}

#[test]
fn latency_toxic_delays_but_delivers() {
    let a = Mid(1);
    let b = Mid(2);
    let mut addrs = AddrMap::loopback(&[a, b]).expect("bind loopback");
    let proxy = ChaosProxy::spawn(addrs.bind_addr(b).expect("b mapped"), 3).expect("proxy");
    addrs.dial_via(b, proxy.addr());
    let cfg = NetConfig::new();
    let (_, deliver_a) = collector();
    let (seen_b, deliver_b) = collector();
    let ep_a = endpoint_from(&mut addrs, a, &cfg, deliver_a);
    let ep_b = endpoint_from(&mut addrs, b, &cfg, deliver_b);

    proxy.set_latency_ms(150);
    let t0 = Instant::now();
    ep_a.send(b, &probe(1));
    assert!(wait_until(Duration::from_secs(10), || !seen_b.lock().expect("lock").is_empty()));
    assert!(
        t0.elapsed() >= Duration::from_millis(100),
        "latency toxic added delay (took {:?})",
        t0.elapsed()
    );
    ep_a.shutdown();
    ep_b.shutdown();
}

#[test]
fn sender_mid_is_not_trusted_beyond_the_frame() {
    // The deliver callback receives whatever mid the frame claims; a
    // raw socket can impersonate. This documents the trust model: the
    // transport authenticates nothing (the protocol tolerates arbitrary
    // senders), it only guarantees integrity of what was sent.
    let a = Mid(1);
    let mut addrs = AddrMap::loopback(&[a]).expect("bind loopback");
    let (seen, deliver) = collector();
    let listener = addrs.take_listener(a).expect("listener");
    let ep = Endpoint::start(
        a,
        listener,
        &BTreeMap::new(),
        NetConfig::new(),
        Arc::new(NetMetrics::default()),
        deliver,
    )
    .expect("endpoint starts");
    let mut sock = TcpStream::connect(ep.local_addr()).expect("connect");
    sock.write_all(&vsr_net::frame_message(Mid(42), &probe(6))).expect("write frame");
    assert!(wait_until(Duration::from_secs(5), || !seen.lock().expect("lock").is_empty()));
    assert_eq!(seen.lock().expect("lock")[0], (Mid(42), probe(6)));
    ep.shutdown();
}

#[test]
fn im_alive_exercises_viewid_payloads_end_to_end() {
    // A non-trivial payload (viewids carry two u64s) through the whole
    // stack, as the cohort heartbeat path will send it.
    let a = Mid(1);
    let b = Mid(2);
    let mut addrs = AddrMap::loopback(&[a, b]).expect("bind loopback");
    let cfg = NetConfig::new();
    let (_, deliver_a) = collector();
    let (seen_b, deliver_b) = collector();
    let ep_a = endpoint_from(&mut addrs, a, &cfg, deliver_a);
    let ep_b = endpoint_from(&mut addrs, b, &cfg, deliver_b);
    let msg = Message::ImAlive { from: a, viewid: ViewId { counter: 17, manager: Mid(3) } };
    assert!(ep_a.send(b, &msg));
    assert!(wait_until(Duration::from_secs(5), || !seen_b.lock().expect("lock").is_empty()));
    assert_eq!(seen_b.lock().expect("lock")[0], (a, msg));
    ep_a.shutdown();
    ep_b.shutdown();
}

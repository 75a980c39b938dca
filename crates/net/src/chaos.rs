//! A socket-level chaos proxy, in the style of toxiproxy: accept on a
//! front address, forward bytes to one upstream, and misbehave on
//! command.
//!
//! Point a peer's dial address at the proxy front (see
//! [`AddrMap::dial_via`](crate::AddrMap::dial_via)) and every byte of
//! that link flows through two pump threads (one per direction), each
//! applying the current toxics to each chunk it forwards:
//!
//! * **latency** — sleep before forwarding;
//! * **partition** — read and discard everything (a black hole: the
//!   sender's writes keep succeeding, which is exactly the half-open
//!   failure the link deadlines exist to catch);
//! * **loss** — drop a chunk with probability `loss‰`. TCP offers the
//!   transport an ordered stream, so a dropped chunk desynchronizes
//!   the frame layer — the receiver sees a CRC mismatch, kills the
//!   connection, and the link reconnects. That is the intended
//!   recovery path, and it is how stream-level loss *must* be handled;
//! * **corruption** — flip one bit of a chunk with probability
//!   `corrupt‰`, exercising the CRC reject path without losing sync
//!   on length;
//! * **slow close** — stall current connections, then close them,
//!   modeling a peer that hangs in `close()` instead of resetting.
//!
//! Fault draws come from a seeded splitmix64 stream, so a given seed
//! yields a reproducible fault *pattern* (thread interleaving still
//! varies, as it does on a real network).

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the chaos proxy forwards real sockets by design to attack the transport layer; its \
              pump threads shuttle bytes between two live sockets and hold no protocol state"
)]

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll interval for blocked reads (shutdown/kill responsiveness).
const POLL_MS: u64 = 25;
/// Pump chunk size. Small enough that per-chunk loss/corruption draws
/// land many times within one burst of frames.
const CHUNK: usize = 4 * 1024;

struct Toxics {
    latency_ms: AtomicU64,
    partitioned: AtomicBool,
    loss_permille: AtomicU64,
    corrupt_permille: AtomicU64,
    rng: AtomicU64,
}

struct Shared {
    upstream: SocketAddr,
    closed: AtomicBool,
    toxics: Toxics,
    pumps: Mutex<Vec<JoinHandle<()>>>,
    conns: Mutex<Vec<Arc<ConnCtl>>>,
}

struct ConnCtl {
    kill: AtomicBool,
    linger_ms: AtomicU64,
}

/// One front→upstream proxy. See the module docs for the fault menu.
pub struct ChaosProxy {
    shared: Arc<Shared>,
    front: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Listen on an ephemeral loopback port and forward every accepted
    /// connection to `upstream`. `seed` fixes the fault-draw stream.
    pub fn spawn(upstream: SocketAddr, seed: u64) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let front = listener.local_addr()?;
        let shared = Arc::new(Shared {
            upstream,
            closed: AtomicBool::new(false),
            toxics: Toxics {
                latency_ms: AtomicU64::new(0),
                partitioned: AtomicBool::new(false),
                loss_permille: AtomicU64::new(0),
                corrupt_permille: AtomicU64::new(0),
                rng: AtomicU64::new(seed | 1),
            },
            pumps: Mutex::new(Vec::new()),
            conns: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("chaos-{}", front.port()))
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(ChaosProxy { shared, front, accept: Some(accept) })
    }

    /// The address peers should dial instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.front
    }

    /// Delay each forwarded chunk by `ms` (0 disables).
    pub fn set_latency_ms(&self, ms: u64) {
        self.shared.toxics.latency_ms.store(ms, Ordering::Relaxed);
    }

    /// Black-hole the link in both directions. Connections stay open;
    /// bytes silently vanish — the classic asymmetric-partition /
    /// half-open failure.
    pub fn set_partitioned(&self, on: bool) {
        self.shared.toxics.partitioned.store(on, Ordering::Relaxed);
    }

    /// Drop each forwarded chunk with probability `permille`/1000.
    pub fn set_loss_permille(&self, permille: u64) {
        self.shared.toxics.loss_permille.store(permille.min(1000), Ordering::Relaxed);
    }

    /// Flip one bit in each forwarded chunk with probability
    /// `permille`/1000.
    pub fn set_corrupt_permille(&self, permille: u64) {
        self.shared.toxics.corrupt_permille.store(permille.min(1000), Ordering::Relaxed);
    }

    /// Slow-close every live connection: each pump stalls for
    /// `linger_ms`, then closes its sockets. New connections are
    /// unaffected (the upstream is still reachable afterwards).
    pub fn slow_close_all(&self, linger_ms: u64) {
        let conns = {
            let mut guard = self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        for conn in conns {
            conn.linger_ms.store(linger_ms, Ordering::Relaxed);
            conn.kill.store(true, Ordering::Relaxed);
        }
    }

    /// Stop forwarding and join every thread. Idempotent; runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        TcpStream::connect_timeout(&self.front, Duration::from_millis(250)).ok();
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
        let pumps = {
            let mut guard = self.shared.pumps.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        for h in pumps {
            h.join().ok();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((front, _)) => {
                if shared.closed.load(Ordering::SeqCst) {
                    return;
                }
                let timeout = Duration::from_millis(1_000);
                let Ok(back) = TcpStream::connect_timeout(&shared.upstream, timeout) else {
                    front.shutdown(Shutdown::Both).ok();
                    continue;
                };
                let ctl = Arc::new(ConnCtl {
                    kill: AtomicBool::new(false),
                    linger_ms: AtomicU64::new(0),
                });
                shared.conns.lock().unwrap_or_else(PoisonError::into_inner).push(Arc::clone(&ctl));
                let (Ok(front2), Ok(back2)) = (front.try_clone(), back.try_clone()) else {
                    continue;
                };
                spawn_pump(shared, front, back, Arc::clone(&ctl));
                spawn_pump(shared, back2, front2, ctl);
            }
            Err(_) => {
                if shared.closed.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(POLL_MS));
            }
        }
    }
}

fn spawn_pump(shared: &Arc<Shared>, src: TcpStream, dst: TcpStream, ctl: Arc<ConnCtl>) {
    let spawned = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("chaos-pump".to_string())
            .spawn(move || pump_loop(&shared, src, dst, &ctl))
    };
    if let Ok(h) = spawned {
        shared.pumps.lock().unwrap_or_else(PoisonError::into_inner).push(h);
    }
}

fn pump_loop(shared: &Arc<Shared>, mut src: TcpStream, mut dst: TcpStream, ctl: &ConnCtl) {
    src.set_read_timeout(Some(Duration::from_millis(POLL_MS))).ok();
    dst.set_write_timeout(Some(Duration::from_millis(2_000))).ok();
    let mut chunk = [0u8; CHUNK];
    loop {
        if shared.closed.load(Ordering::SeqCst) {
            break;
        }
        if ctl.kill.load(Ordering::Relaxed) {
            // Slow close: hang for the linger, then drop the sockets.
            std::thread::sleep(Duration::from_millis(ctl.linger_ms.load(Ordering::Relaxed)));
            break;
        }
        match src.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let toxics = &shared.toxics;
                if toxics.partitioned.load(Ordering::Relaxed) {
                    continue; // black hole: consumed, never forwarded
                }
                let loss = toxics.loss_permille.load(Ordering::Relaxed);
                if loss > 0 && next_rand(&toxics.rng) % 1000 < loss {
                    continue; // stream desync on purpose
                }
                let corrupt = toxics.corrupt_permille.load(Ordering::Relaxed);
                if corrupt > 0 && next_rand(&toxics.rng) % 1000 < corrupt {
                    let bit = next_rand(&toxics.rng) as usize % (n * 8);
                    chunk[bit / 8] ^= 1 << (bit % 8);
                }
                let latency = toxics.latency_ms.load(Ordering::Relaxed);
                if latency > 0 {
                    std::thread::sleep(Duration::from_millis(latency.min(1_000)));
                }
                if dst.write_all(&chunk[..n]).is_err() {
                    break;
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    src.shutdown(Shutdown::Both).ok();
    dst.shutdown(Shutdown::Both).ok();
}

/// Advance the shared splitmix64 state and return the next draw.
fn next_rand(state: &AtomicU64) -> u64 {
    let z = state.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

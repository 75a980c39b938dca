//! The three workloads and their seeded op-script generator.
//!
//! A workload is a cluster shape plus a traffic mix. The generator turns
//! `--seed` into one op script per client thread; the cluster only ever
//! sees those scripts, so the same seed replays the same traffic.

use std::fmt;

/// Most closed-loop client threads a workload runs: one per processor
/// of the 2-vCPU machine the benchmark was sized on, so load never
/// outnumbers the cores.
pub const CLIENTS: usize = 2;

/// Ops per client script. Clients cycle through their script, so a fast
/// run repeats the same pattern instead of running out of input.
pub const SCRIPT_LEN: usize = 1 << 16;

/// Objects private to each client on the write workloads.
pub const PRIVATE_OBJECTS: u64 = 16;

/// Objects of `read_mostly_tcp`, shared by reads and increments.
pub const SHARED_OBJECTS: u64 = 16;

/// One in this many `read_mostly_tcp` ops is an increment.
pub const WRITE_ONE_IN: u64 = 10;

/// Named workloads, each stressing a different layer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process mailboxes, no WAL, conflict-free increments.
    WriteMem,
    /// The same traffic over file WALs with group commit.
    WriteDurable,
    /// Loopback TCP with read leases; 90% reads over shared objects.
    ReadMostlyTcp,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::WriteMem, Workload::WriteDurable, Workload::ReadMostlyTcp];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteMem => "write_mem",
            Workload::WriteDurable => "write_durable",
            Workload::ReadMostlyTcp => "read_mostly_tcp",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether reads go to the server group's lease fast path.
    pub fn leased(self) -> bool {
        self == Workload::ReadMostlyTcp
    }

    /// Its closed-loop client threads. `read_mostly_tcp` runs one: a
    /// leased read is almost all processor time and thread wake-ups, and
    /// with two clients and the TCP endpoints' threads on two processors
    /// its figures followed the host's speed about twice as closely.
    pub fn clients(self) -> usize {
        match self {
            Workload::WriteMem | Workload::WriteDurable => CLIENTS,
            Workload::ReadMostlyTcp => 1,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One generated operation: a single-object transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Add `delta` to counter `object`, through the client group.
    Incr {
        /// The counter.
        object: u64,
        /// The amount added (1..=4).
        delta: u64,
    },
    /// Read counter `object`, submitted straight to the server group.
    Read {
        /// The counter.
        object: u64,
    },
}

impl Op {
    /// The counter this op touches.
    pub fn object(self) -> u64 {
        match self {
            Op::Incr { object, .. } | Op::Read { object } => object,
        }
    }
}

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Every object the workload's scripts can touch. Object 0 is reserved
/// for the readiness transactions of set-up.
pub fn objects(workload: Workload) -> Vec<u64> {
    match workload {
        Workload::WriteMem | Workload::WriteDurable => {
            (0..CLIENTS as u64).flat_map(|c| private_range(c).collect::<Vec<_>>()).collect()
        }
        Workload::ReadMostlyTcp => (1..=SHARED_OBJECTS).collect(),
    }
}

fn private_range(client: u64) -> std::ops::Range<u64> {
    let first = 1 + client * PRIVATE_OBJECTS;
    first..first + PRIVATE_OBJECTS
}

/// The op script of `client` in measurement round `round` under `seed`.
pub fn script(workload: Workload, seed: u64, round: usize, client: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, (round * CLIENTS + client) as u64 + 1);
    (0..SCRIPT_LEN)
        .map(|_| match workload {
            Workload::WriteMem | Workload::WriteDurable => {
                let first = private_range(client as u64).start;
                Op::Incr { object: first + rng.below(PRIVATE_OBJECTS), delta: 1 + rng.below(4) }
            }
            Workload::ReadMostlyTcp => {
                let object = 1 + rng.below(SHARED_OBJECTS);
                if rng.below(WRITE_ONE_IN) == 0 {
                    Op::Incr { object, delta: 1 + rng.below(4) }
                } else {
                    Op::Read { object }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        for w in Workload::ALL {
            assert_eq!(script(w, 7, 0, 0), script(w, 7, 0, 0));
            assert_ne!(script(w, 7, 0, 0), script(w, 8, 0, 0));
            assert_ne!(script(w, 7, 0, 0), script(w, 7, 0, 1));
            assert_ne!(script(w, 7, 0, 0), script(w, 7, 1, 0));
        }
    }

    #[test]
    fn write_workloads_keep_objects_private() {
        let a = script(Workload::WriteMem, 3, 0, 0);
        let b = script(Workload::WriteMem, 3, 0, 1);
        assert!(a.iter().all(|op| !b.iter().any(|o| o.object() == op.object())));
        assert!(a.iter().all(|op| matches!(op, Op::Incr { .. })));
    }

    #[test]
    fn read_mostly_mix_is_about_ninety_percent_reads() {
        let s = script(Workload::ReadMostlyTcp, 11, 0, 0);
        let reads = s.iter().filter(|op| matches!(op, Op::Read { .. })).count();
        let share = reads as f64 / s.len() as f64;
        assert!((0.88..0.92).contains(&share), "read share {share}");
        assert!(s.iter().all(|op| objects(Workload::ReadMostlyTcp).contains(&op.object())));
    }
}

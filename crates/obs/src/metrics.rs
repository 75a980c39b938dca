//! Aggregate measurements, shared by the simulator and the thread
//! runtime so both report the same counter set.
//!
//! Historically this lived in `vsr-sim` and kept every commit latency
//! in an unbounded `Vec<u64>`; latencies now land in a fixed-size
//! [`Histogram`] (zero allocation per sample), and the runtime
//! `Cluster` populates the same struct the sim `World` does.

use std::collections::BTreeMap;

use crate::hist::Histogram;

/// Counters and samples recorded from effects and observations, almost
/// all through the accounting hooks in [`crate::account`].
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Messages sent, by message name.
    pub msgs: BTreeMap<&'static str, u64>,
    /// Bytes sent, by message name.
    pub bytes: BTreeMap<&'static str, u64>,
    /// Foreground (request/response) messages.
    pub foreground_msgs: u64,
    /// Foreground (request/response) bytes.
    pub foreground_bytes: u64,
    /// Background replication traffic (buffer streaming, heartbeats).
    pub background_msgs: u64,
    /// View change protocol messages.
    pub view_change_msgs: u64,
    /// Transactions submitted.
    pub submitted: u64,
    /// Transactions committed (client-visible).
    pub committed: u64,
    /// Transactions aborted (client-visible).
    pub aborted: u64,
    /// Transactions whose outcome was unresolved at the client.
    pub unresolved: u64,
    /// Commit latencies in ticks (submission → committed report),
    /// log-bucketed.
    pub commit_latency: Histogram,
    /// Number of view formations observed (one per new primary start).
    pub view_formations: u64,
    /// Prepares processed without waiting for a force (Section 3.7 fast
    /// path).
    pub prepares_fast: u64,
    /// Prepares that had to wait for a force.
    pub prepares_waited: u64,
    /// Forces abandoned (each one triggers a view change).
    pub forces_abandoned: u64,
    /// Messages re-sent by retry timers (call, prepare, commit, view
    /// manager, and agent retries): how hard recovery paths are working.
    pub retransmissions: u64,
    /// Protocol timeout firings (every timer except the periodic
    /// heartbeat and buffer-flush ticks).
    pub timeouts_fired: u64,
    /// View-change attempts started (some fail and are retried; compare
    /// with [`view_formations`](Metrics::view_formations) for the
    /// success rate).
    pub view_change_attempts: u64,
    /// Record-window clones the primary's buffer flush avoided by
    /// sharing one clone per distinct ack watermark.
    pub buffer_clones_saved: u64,
    /// WAL frames appended across all disks (durable configurations
    /// only; zero under the paper's no-disk design).
    pub disk_appends: u64,
    /// Fsyncs issued across all disks.
    pub disk_fsyncs: u64,
    /// Bytes written across all disks, framing included.
    pub disk_bytes_written: u64,
    /// Checkpoint frames written across all disks.
    pub checkpoints_taken: u64,
    /// Log records replayed by recovering cohorts (counts only complete
    /// recoveries; a paper-minimum viewid-only recovery replays none).
    pub records_replayed: u64,
    /// Snapshots materialized (boundary snapshots plus ad-hoc snapshots
    /// taken when a new primary starts a view without a fresh one).
    pub snapshots_taken: u64,
    /// Snapshots installed after a chunked state transfer. Digest-match
    /// and already-held installs cost nothing and are not counted.
    pub snapshots_installed: u64,
    /// Snapshot chunks served (`chunk` messages sent).
    pub snapshot_chunks_sent: u64,
    /// Snapshot chunks received by fetching cohorts.
    pub snapshot_chunks_received: u64,
    /// Chunk requests re-sent because the previous request went
    /// unanswered.
    pub snapshot_chunk_retries: u64,
    /// Chunks dropped for a CRC mismatch, or whole transfers restarted
    /// for an assembled-digest mismatch.
    pub snapshot_chunks_corrupt: u64,
    /// `Done` transaction status entries garbage-collected out of the
    /// group state (one per retired aid; bounds status-map growth).
    pub statuses_gced: u64,
    /// Chunked state-transfer durations in ticks (first chunk request →
    /// snapshot installed), log-bucketed.
    pub transfer_ticks: Histogram,
    /// In-process mail dropped by a full bounded cohort mailbox or
    /// observation drain (drop-oldest overflow policy; zero while
    /// consumers keep up).
    pub mailbox_drops: u64,
    /// Message frames written to peer sockets (networked transport
    /// only; zero for in-process and simulated runs).
    pub net_frames_sent: u64,
    /// Message frames received and decoded from peer sockets.
    pub net_frames_recvd: u64,
    /// Socket (re)connection attempts made by peer links after an
    /// established connection failed.
    pub net_reconnects: u64,
    /// Inbound frames rejected by the CRC or the message decoder; each
    /// one also drops its connection, because a corrupt byte stream
    /// cannot be resynchronized.
    pub net_crc_rejects: u64,
    /// Outbound frames dropped by a full per-peer bounded queue
    /// (drop-oldest overflow policy).
    pub net_queue_drops: u64,
    /// Read/write deadline expiries on peer sockets (gray-slow peers
    /// degrade to timeouts instead of wedging the runtime's host).
    pub net_deadline_hits: u64,
    /// In-process mail *refused* by a bounded mailbox full of critical
    /// entries (lost-new, vs `mailbox_drops`' lost-old evictions).
    pub mailbox_rejections: u64,
    /// Outbound frames refused by a per-peer queue full of critical
    /// entries (lost-new, vs `net_queue_drops`' lost-old evictions).
    pub net_queue_rejections: u64,
    /// Outbound frames that rode an already-scheduled vectored write
    /// instead of costing their own writer wakeup (a writer pass that
    /// drains n frames in one write counts n-1 here).
    pub net_frames_coalesced: u64,
    /// Covering fsyncs issued by group commit: one sync making a whole
    /// batch of appended records durable at once.
    pub group_fsyncs: u64,
    /// Records made durable per covering group-commit fsync,
    /// log-bucketed (batch size distribution).
    pub records_per_fsync: Histogram,
    /// Coordinator transactions in flight on the primary, sampled at
    /// each handler pass, log-bucketed (pipelining depth distribution).
    pub inflight_txns: Histogram,
    /// Read-only transactions served from the primary's local state
    /// under a read lease (no event records, no force, no disk).
    pub leased_reads: u64,
    /// Lease grants that renewed an already-live grant (steady-state
    /// piggybacked renewals; first-time grants are not counted).
    pub lease_renewals: u64,
    /// Read-only submissions that reached a leased primary but fell back
    /// to the coordinated path (write access, lock conflict, or
    /// application error).
    pub lease_read_rejected: u64,
    /// View changes whose new primary had to sit out the skew-adjusted
    /// maximum lease before accepting writes (no explicit revocation
    /// from the previous primary covered the previous view).
    pub lease_waits_on_view_change: u64,
    /// Leased-read latencies (submission → local reply), log-bucketed.
    /// Ticks in the simulator, microseconds in the thread runtime.
    pub lease_read_ticks: Histogram,
}

impl Metrics {
    /// Total messages sent.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.values().sum()
    }

    /// Total bytes sent.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.values().sum()
    }

    /// Mean commit latency in ticks, if any transaction committed.
    /// Exact: the histogram tracks the sample sum alongside buckets.
    pub fn mean_commit_latency(&self) -> Option<f64> {
        self.commit_latency.mean()
    }

    /// A latency percentile (0.0–1.0) by ceil nearest-rank, if any
    /// transaction committed.
    ///
    /// The old vec-based computation rounded `(len-1)·p` to nearest,
    /// which made p99 of 100 samples report the *second*-largest value
    /// (index 98 of 99). Ceil nearest-rank (`ceil(len·p)`, 1-based)
    /// reports the 99th.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        self.commit_latency.percentile(p)
    }

    /// Fraction of prepares that took the no-wait fast path.
    pub fn prepare_fast_fraction(&self) -> Option<f64> {
        let total = self.prepares_fast + self.prepares_waited;
        if total == 0 {
            return None;
        }
        Some(self.prepares_fast as f64 / total as f64)
    }

    /// Every scalar counter with its stable name, in declaration
    /// order. The sim-vs-runtime parity test keys on these names, so
    /// both harnesses expose exactly this set. The destructure names
    /// every field, so a new one is a compile error here until it is
    /// exported (histograms as their sample counts) or explicitly
    /// skipped (the per-name maps, which `total_msgs`/`total_bytes`
    /// summarize).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let Metrics {
            msgs: _,
            bytes: _,
            foreground_msgs,
            foreground_bytes,
            background_msgs,
            view_change_msgs,
            submitted,
            committed,
            aborted,
            unresolved,
            commit_latency,
            view_formations,
            prepares_fast,
            prepares_waited,
            forces_abandoned,
            retransmissions,
            timeouts_fired,
            view_change_attempts,
            buffer_clones_saved,
            disk_appends,
            disk_fsyncs,
            disk_bytes_written,
            checkpoints_taken,
            records_replayed,
            snapshots_taken,
            snapshots_installed,
            snapshot_chunks_sent,
            snapshot_chunks_received,
            snapshot_chunk_retries,
            snapshot_chunks_corrupt,
            statuses_gced,
            transfer_ticks,
            mailbox_drops,
            net_frames_sent,
            net_frames_recvd,
            net_reconnects,
            net_crc_rejects,
            net_queue_drops,
            net_deadline_hits,
            mailbox_rejections,
            net_queue_rejections,
            net_frames_coalesced,
            group_fsyncs,
            records_per_fsync,
            inflight_txns,
            leased_reads,
            lease_renewals,
            lease_read_rejected,
            lease_waits_on_view_change,
            lease_read_ticks,
        } = self;
        vec![
            ("foreground_msgs", *foreground_msgs),
            ("foreground_bytes", *foreground_bytes),
            ("background_msgs", *background_msgs),
            ("view_change_msgs", *view_change_msgs),
            ("submitted", *submitted),
            ("committed", *committed),
            ("aborted", *aborted),
            ("unresolved", *unresolved),
            ("commit_latency_count", commit_latency.count()),
            ("view_formations", *view_formations),
            ("prepares_fast", *prepares_fast),
            ("prepares_waited", *prepares_waited),
            ("forces_abandoned", *forces_abandoned),
            ("retransmissions", *retransmissions),
            ("timeouts_fired", *timeouts_fired),
            ("view_change_attempts", *view_change_attempts),
            ("buffer_clones_saved", *buffer_clones_saved),
            ("disk_appends", *disk_appends),
            ("disk_fsyncs", *disk_fsyncs),
            ("disk_bytes_written", *disk_bytes_written),
            ("checkpoints_taken", *checkpoints_taken),
            ("records_replayed", *records_replayed),
            ("snapshots_taken", *snapshots_taken),
            ("snapshots_installed", *snapshots_installed),
            ("snapshot_chunks_sent", *snapshot_chunks_sent),
            ("snapshot_chunks_received", *snapshot_chunks_received),
            ("snapshot_chunk_retries", *snapshot_chunk_retries),
            ("snapshot_chunks_corrupt", *snapshot_chunks_corrupt),
            ("snapshot_transfer_count", transfer_ticks.count()),
            ("statuses_gced", *statuses_gced),
            ("mailbox_drops", *mailbox_drops),
            ("net_frames_sent", *net_frames_sent),
            ("net_frames_recvd", *net_frames_recvd),
            ("net_reconnects", *net_reconnects),
            ("net_crc_rejects", *net_crc_rejects),
            ("net_queue_drops", *net_queue_drops),
            ("net_deadline_hits", *net_deadline_hits),
            ("mailbox_rejections", *mailbox_rejections),
            ("net_queue_rejections", *net_queue_rejections),
            ("net_frames_coalesced", *net_frames_coalesced),
            ("group_fsyncs", *group_fsyncs),
            ("records_per_fsync_count", records_per_fsync.count()),
            ("inflight_txns_count", inflight_txns.count()),
            ("leased_reads", *leased_reads),
            ("lease_renewals", *lease_renewals),
            ("lease_read_rejected", *lease_read_rejected),
            ("lease_waits_on_view_change", *lease_waits_on_view_change),
            ("lease_read_count", lease_read_ticks.count()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_latencies(samples: &[u64]) -> Metrics {
        let mut m = Metrics::default();
        for &v in samples {
            m.commit_latency.record(v);
        }
        m
    }

    #[test]
    fn empty_metrics_have_no_latency() {
        let m = Metrics::default();
        assert_eq!(m.mean_commit_latency(), None);
        assert_eq!(m.latency_percentile(0.5), None);
        assert_eq!(m.prepare_fast_fraction(), None);
        assert_eq!(m.total_msgs(), 0);
    }

    #[test]
    fn latency_stats() {
        let mut m = with_latencies(&[10, 20, 30, 40]);
        m.committed = 4;
        assert_eq!(m.mean_commit_latency(), Some(25.0));
        assert_eq!(m.latency_percentile(0.0), Some(10));
        assert_eq!(m.latency_percentile(1.0), Some(40));
        let p50 = m.latency_percentile(0.5).expect("has samples");
        assert!((20..=30).contains(&p50));
    }

    #[test]
    fn p99_of_1_to_100_is_99() {
        // Regression: the old computation rounded (len-1)·p to nearest,
        // so p99 of 100 samples returned sorted[98] — but only by luck
        // (round(98.01) = 98 → value 99); for p50 it returned
        // sorted[50] = 51 instead of the nearest-rank 50. Ceil
        // nearest-rank pins both.
        let m = with_latencies(&(1..=100).collect::<Vec<_>>());
        assert_eq!(m.latency_percentile(0.99), Some(99));
        assert_eq!(m.latency_percentile(0.5), Some(50));
    }

    #[test]
    fn percentiles_match_old_vec_computation_on_small_samples() {
        // E1-scale latencies (well under 32 ticks) are stored exactly,
        // so the histogram reproduces the old sorted-vec values.
        let samples = [8u64, 9, 9, 9, 10, 9, 8, 9, 9, 10];
        let m = with_latencies(&samples);
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        for (p, rank) in [(0.5, 5usize), (0.99, 10)] {
            assert_eq!(m.latency_percentile(p), Some(sorted[rank - 1]), "p={p}");
        }
    }

    #[test]
    fn fast_fraction() {
        let m = Metrics { prepares_fast: 3, prepares_waited: 1, ..Metrics::default() };
        assert_eq!(m.prepare_fast_fraction(), Some(0.75));
    }

    #[test]
    fn counter_names_are_unique() {
        let m = Metrics::default();
        let names: Vec<_> = m.counters().into_iter().map(|(n, _)| n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}

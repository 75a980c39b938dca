//! A5 — Snapshots and state transfer: view-change payload vs state size
//! (beyond the paper: Section 5's newview event record carries the
//! manager's *entire* group state and history, so a Figure-5 view change
//! transfers O(state) bytes no matter how little the underlings are
//! missing).
//!
//! With content-addressed snapshots the newview record carries a base
//! snapshot *reference* (digest + viewstamp) plus the delta of event
//! records applied since that snapshot. An up-to-date cohort installs
//! the view with zero state transfer; only a genuinely behind cohort
//! pays O(state), off the view-change critical path, via bounded
//! CRC-checked chunks.
//!
//! For each group-state size this experiment measures:
//!
//! * the full-state payload a Figure-5 newview would ship (the encoded
//!   snapshot bytes — exactly what the old record embedded);
//! * the actual base+delta newview payload on the wire today;
//! * the view-change latency with that state (crash a backup, observe
//!   `ViewChangeStarted` → `ViewChanged`);
//! * the chunked-transfer cost paid by a blanked cohort that rejoins
//!   (chunks and ticks of its `SnapshotInstalled`).
//!
//! `exp a5 <path>` additionally writes the points as JSON — the
//! `BENCH_snapshot.json` baseline recorded by CI. The run is fully
//! deterministic (fixed seeds, simulated time), so the baseline is
//! byte-stable across machines.

use crate::helpers::{server_mids, vr_world, CLIENT, SERVER};
use crate::table::Table;
use vsr_app::counter;
use vsr_core::cohort::Observation;
use vsr_core::config::CohortConfig;
use vsr_core::event::{EventKind, EventRecord};
use vsr_core::messages::Message;
use vsr_core::snapshot::Snapshot;
use vsr_core::types::{Timestamp, Viewstamp};
use vsr_core::wire::encode_message;
use vsr_simnet::NetConfig;

/// Group-state sizes (distinct counter objects) swept by the experiment.
pub const STATE_SIZES: [u64; 4] = [16, 64, 256, 1024];

/// One measured state size.
#[derive(Debug, Clone, Copy)]
pub struct SizePoint {
    /// Distinct objects committed into the group state.
    pub objects: u64,
    /// Encoded bytes of the full state snapshot — the payload a
    /// Figure-5 newview (full history + gstate clone) would carry.
    pub full_state_bytes: usize,
    /// Encoded bytes of the actual newview message: base snapshot
    /// reference plus the delta records since it.
    pub newview_bytes: usize,
    /// Delta records the newview would replay on top of the base.
    pub delta_records: usize,
    /// View-change latency in ticks (`ViewChangeStarted` →
    /// new primary's `ViewChanged`) after a backup crash.
    pub vc_latency: u64,
    /// Chunks fetched by a blanked cohort rejoining via state transfer.
    pub rejoin_chunks: u32,
    /// Ticks from the rejoiner's first chunk request to installation.
    pub rejoin_ticks: u64,
}

/// Measure one state size. Deterministic for a given `(objects, seed)`.
pub fn measure(objects: u64, seed: u64) -> SizePoint {
    let mut cfg = CohortConfig::new();
    // Frequent boundaries so a stable snapshot always exists, and small
    // chunks so the rejoin transfer cost is visible in chunk counts; a
    // wide underling timeout lets the largest transfers finish inside
    // one view.
    cfg.snapshot_interval = 8;
    cfg.snapshot_chunk_bytes = 1024;
    cfg.underling_timeout = 5_000;
    let mut w = vr_world(seed, 3, NetConfig::reliable(seed), cfg);
    for i in 0..objects {
        w.submit(CLIENT, vec![counter::incr(SERVER, i, 1)]);
        w.run_for(25);
    }
    w.run_for(4_000);
    assert!(w.metrics().committed >= objects, "workload must commit");

    // Payload sizes, measured from the primary's real state: what a
    // full-state newview would ship versus what ours ships.
    let primary = w.primary_of(SERVER).expect("primary exists");
    let c = w.cohort(primary);
    let vs = c.history().latest().expect("group has applied records");
    let full_state_bytes = Snapshot::materialize(vs, c.history(), c.gstate()).bytes.len();
    let base = c.last_snapshot().expect("boundary snapshot exists");
    let record = EventRecord {
        vs: Viewstamp::new(c.cur_viewid(), Timestamp(1)),
        kind: EventKind::NewView {
            view: c.cur_view().clone(),
            history: c.history().clone(),
            base,
            delta: c.delta_log().to_vec().into(),
        },
    };
    let delta_records = c.delta_log().len();
    let newview =
        Message::BufferSend { viewid: c.cur_viewid(), from: primary, records: vec![record].into() };
    let newview_bytes = encode_message(&newview).len();

    // View-change latency with this state: crash a backup and observe
    // the reorganization among the survivors.
    let victim = *server_mids(3).iter().find(|&&m| m != primary).expect("backup exists");
    let crash_at = w.now();
    w.crash(victim);
    w.run_for(10_000);
    let started = w
        .observations()
        .iter()
        .find(|(t, o)| *t >= crash_at && matches!(o, Observation::ViewChangeStarted { .. }))
        .map(|(t, _)| *t);
    let formed = w
        .observations()
        .iter()
        .find(|(t, o)| {
            *t >= crash_at && matches!(o, Observation::ViewChanged { is_primary: true, .. })
        })
        .map(|(t, _)| *t)
        .expect("view formed");
    let vc_latency = formed - started.unwrap_or(formed);

    // Rejoin cost: in this no-disk world the crashed cohort lost
    // everything, so on recovery it must fetch the snapshot in chunks.
    w.recover(victim);
    w.run_for(20_000);
    let (rejoin_chunks, rejoin_ticks) = w
        .observations()
        .iter()
        .rev()
        .find_map(|(_, o)| match o {
            Observation::SnapshotInstalled { mid, chunks, ticks, .. } if *mid == victim => {
                Some((*chunks, *ticks))
            }
            _ => None,
        })
        .expect("blanked rejoiner installs a fetched snapshot");
    w.verify().expect("safety oracles hold");

    SizePoint {
        objects,
        full_state_bytes,
        newview_bytes,
        delta_records,
        vc_latency,
        rejoin_chunks,
        rejoin_ticks,
    }
}

/// Measure every size in [`STATE_SIZES`] with fixed seeds.
pub fn measure_all() -> Vec<SizePoint> {
    STATE_SIZES.iter().enumerate().map(|(i, &n)| measure(n, 70 + i as u64)).collect()
}

/// Render the measured points as the experiment table.
pub fn render(points: &[SizePoint]) -> String {
    let mut table = Table::new(
        "A5 — View change payload & latency vs state size: full-state newview \
         (paper, Section 5) vs snapshot base+delta",
        &[
            "objects",
            "full-state newview (bytes)",
            "base+delta newview (bytes)",
            "delta records",
            "view change (ticks)",
            "blank rejoin (chunks / ticks)",
        ],
    );
    for p in points {
        table.row([
            p.objects.to_string(),
            p.full_state_bytes.to_string(),
            p.newview_bytes.to_string(),
            p.delta_records.to_string(),
            p.vc_latency.to_string(),
            format!("{} / {}", p.rejoin_chunks, p.rejoin_ticks),
        ]);
    }
    table.note(
        "Claim (DESIGN §14): once a stable snapshot exists, a view change \
         transfers O(delta) bytes — the newview payload stays flat while the \
         full-state payload the paper's Figure-5 record would carry grows \
         linearly with the group state. The O(state) cost is paid only by a \
         cohort that is genuinely behind, off the view-change critical path, \
         as a bounded CRC-checked chunk transfer (whose chunk count grows \
         with the state instead).",
    );
    table.render()
}

/// Serialize the points as the `BENCH_snapshot.json` baseline.
pub fn to_json(points: &[SizePoint]) -> String {
    let mut out = String::from(
        "{\n  \"experiment\": \"A5\",\n  \"title\": \
         \"view-change payload & latency vs state size\",\n  \"points\": [\n",
    );
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"objects\": {}, \"full_state_bytes\": {}, \"newview_bytes\": {}, \
             \"delta_records\": {}, \"vc_latency_ticks\": {}, \"rejoin_chunks\": {}, \
             \"rejoin_ticks\": {}}}{}\n",
            p.objects,
            p.full_state_bytes,
            p.newview_bytes,
            p.delta_records,
            p.vc_latency,
            p.rejoin_chunks,
            p.rejoin_ticks,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run the experiment, returning the rendered table.
pub fn run() -> String {
    render(&measure_all())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newview_payload_is_o_delta_not_o_state() {
        let small = measure(24, 1);
        let big = measure(384, 2);
        // The full-state payload grows roughly linearly with the state…
        assert!(
            big.full_state_bytes > 4 * small.full_state_bytes,
            "full-state payload must grow with state ({} vs {})",
            big.full_state_bytes,
            small.full_state_bytes
        );
        // …while the base+delta newview does not follow it.
        assert!(
            big.newview_bytes * 4 < big.full_state_bytes,
            "newview payload ({}) must stay far below the full state ({})",
            big.newview_bytes,
            big.full_state_bytes
        );
        // The O(state) transfer moved to the rejoiner's chunk fetch.
        assert!(
            big.rejoin_chunks > small.rejoin_chunks,
            "rejoin transfer must grow with state ({} vs {} chunks)",
            big.rejoin_chunks,
            small.rejoin_chunks
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let points = [measure(24, 3)];
        let json = to_json(&points);
        assert!(json.contains("\"experiment\": \"A5\""));
        assert!(json.contains("\"objects\": 24"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn renders() {
        assert!(render(&[measure(16, 4)]).contains("A5"));
    }
}

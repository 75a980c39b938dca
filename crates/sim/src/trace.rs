//! Human-readable run forensics: render a world's observations as a
//! timeline, and summarize a run — the first tool to reach for when a
//! seed misbehaves.

use vsr_core::cohort::Observation;
use vsr_obs::Metrics;

/// Render observations as a chronological timeline, one line per event.
///
/// # Examples
///
/// ```
/// use vsr_sim::trace::timeline;
/// assert_eq!(timeline(&[]), "");
/// ```
pub fn timeline(observations: &[(u64, Observation)]) -> String {
    let mut out = String::new();
    for (t, obs) in observations {
        let line = match obs {
            Observation::ViewChangeStarted { group, mid, viewid } => {
                format!("{group} view change started by {mid} proposing {viewid}")
            }
            Observation::ViewChanged { group, mid, viewid, is_primary, view } => {
                if *is_primary {
                    format!("{group} formed {viewid}: {mid} is PRIMARY of {view}")
                } else {
                    format!("{group} {mid} joined {viewid}")
                }
            }
            Observation::TxnCommitted { group, mid, aid, accesses, .. } => {
                format!("{group} {mid} committed {aid} ({} accesses)", accesses.len())
            }
            Observation::TxnAborted { group, mid, aid } => {
                format!("{group} {mid} aborted {aid}")
            }
            Observation::ForceAbandoned { group, mid, viewid } => {
                format!("{group} {mid} ABANDONED a force in {viewid} (view change follows)")
            }
            Observation::PrepareProcessed { group, aid, waited } => {
                format!(
                    "{group} prepared {aid} ({})",
                    if *waited { "waited for force" } else { "fast path" }
                )
            }
            Observation::StatusChanged { group, mid, from, to } => {
                format!("{group} {mid} status {} -> {}", from.name(), to.name())
            }
            Observation::ForceBegan { group, mid, vs } => {
                format!("{group} {mid} force began up to ts {} in {}", vs.ts.0, vs.id)
            }
            Observation::ForceFired { group, mid, vs, fired } => {
                format!(
                    "{group} {mid} {fired} force(s) fired at watermark {} in {}",
                    vs.ts.0, vs.id
                )
            }
            Observation::BufferFlushed { group, mid, sends, clones_saved } => {
                format!("{group} {mid} flushed buffer: {sends} sends, {clones_saved} clones saved")
            }
            Observation::SnapshotTaken { group, mid, vs, bytes } => {
                format!("{group} {mid} snapshot at ts {} in {} ({bytes} bytes)", vs.ts.0, vs.id)
            }
            Observation::SnapshotInstalled { group, mid, chunks, ticks } => {
                format!("{group} {mid} installed fetched snapshot ({chunks} chunks, {ticks} ticks)")
            }
            Observation::ChunkCorruptDropped { group, mid } => {
                format!("{group} {mid} dropped a corrupt snapshot chunk")
            }
            Observation::ChunkRetried { group, mid } => {
                format!("{group} {mid} re-requested an unanswered snapshot chunk")
            }
            Observation::StatusesGced { group, mid, n } => {
                format!("{group} {mid} garbage-collected {n} done status entr(y/ies)")
            }
            Observation::LeasedRead { group, mid, aid, accesses, .. } => {
                format!("{group} {mid} served leased read {aid} ({} accesses)", accesses.len())
            }
            Observation::LeaseRenewed { group, mid } => {
                format!("{group} {mid} renewed a backup's lease grant")
            }
            Observation::LeaseReadRejected { group, mid } => {
                format!("{group} {mid} rejected a leased read (fell back to coordination)")
            }
            Observation::LeaseWaitStarted { group, mid, viewid, wait } => {
                format!("{group} {mid} waiting out leases ({wait} ticks) before {viewid} writes")
            }
        };
        out.push_str(&format!("t={t:>8}  {line}\n"));
    }
    out
}

/// Render only the reorganization-related events (view changes and
/// abandoned forces) — the usual starting point for fault forensics.
pub fn view_timeline(observations: &[(u64, Observation)]) -> String {
    let filtered: Vec<(u64, Observation)> = observations
        .iter()
        .filter(|(_, o)| {
            matches!(
                o,
                Observation::ViewChangeStarted { .. }
                    | Observation::ViewChanged { .. }
                    | Observation::ForceAbandoned { .. }
            )
        })
        .cloned()
        .collect();
    timeline(&filtered)
}

/// A one-paragraph run summary from the collected metrics.
pub fn summarize(metrics: &Metrics) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "transactions: {} submitted, {} committed, {} aborted, {} unresolved\n",
        metrics.submitted, metrics.committed, metrics.aborted, metrics.unresolved
    ));
    if let Some(mean) = metrics.mean_commit_latency() {
        out.push_str(&format!(
            "commit latency: mean {:.1} ticks, p99 {} ticks\n",
            mean,
            metrics.latency_percentile(0.99).unwrap_or(0)
        ));
    }
    out.push_str(&format!(
        "messages: {} total ({} foreground, {} background, {} view change), {} bytes\n",
        metrics.total_msgs(),
        metrics.foreground_msgs,
        metrics.background_msgs,
        metrics.view_change_msgs,
        metrics.total_bytes()
    ));
    out.push_str(&format!(
        "reorganizations: {} view formations, {} abandoned forces\n",
        metrics.view_formations, metrics.forces_abandoned
    ));
    if let Some(frac) = metrics.prepare_fast_fraction() {
        out.push_str(&format!("prepare fast path: {:.0}%\n", frac * 100.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsr_core::types::{Aid, GroupId, Mid, ViewId, Viewstamp};
    use vsr_core::view::View;

    fn obs() -> Vec<(u64, Observation)> {
        let aid = Aid { group: GroupId(1), view: ViewId::initial(Mid(0)), seq: 0 };
        vec![
            (
                10,
                Observation::ViewChangeStarted {
                    group: GroupId(2),
                    mid: Mid(2),
                    viewid: ViewId { counter: 1, manager: Mid(2) },
                },
            ),
            (
                15,
                Observation::ViewChanged {
                    group: GroupId(2),
                    mid: Mid(2),
                    viewid: ViewId { counter: 1, manager: Mid(2) },
                    view: View::new(Mid(2), vec![Mid(3)]),
                    is_primary: true,
                },
            ),
            (
                20,
                Observation::TxnCommitted {
                    group: GroupId(2),
                    mid: Mid(2),
                    aid,
                    accesses: vec![],
                    vs: Viewstamp::default(),
                },
            ),
            (25, Observation::TxnAborted { group: GroupId(2), mid: Mid(2), aid }),
        ]
    }

    #[test]
    fn timeline_renders_every_event() {
        let rendered = timeline(&obs());
        assert_eq!(rendered.lines().count(), 4);
        assert!(rendered.contains("PRIMARY"));
        assert!(rendered.contains("committed"));
        assert!(rendered.contains("aborted"));
        assert!(rendered.contains("t="));
    }

    #[test]
    fn view_timeline_filters_transactions() {
        let rendered = view_timeline(&obs());
        assert_eq!(rendered.lines().count(), 2);
        assert!(!rendered.contains("committed"));
    }

    #[test]
    fn summary_lists_counts() {
        let mut m = Metrics {
            submitted: 10,
            committed: 8,
            aborted: 2,
            view_formations: 1,
            ..Metrics::default()
        };
        m.commit_latency.record(5);
        m.commit_latency.record(10);
        let s = summarize(&m);
        assert!(s.contains("10 submitted"));
        assert!(s.contains("8 committed"));
        assert!(s.contains("mean 7.5"));
        assert!(s.contains("1 view formations"));
    }

    #[test]
    fn empty_inputs_render_empty() {
        assert_eq!(timeline(&[]), "");
        assert!(!summarize(&Metrics::default()).is_empty());
    }
}

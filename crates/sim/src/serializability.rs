//! One-copy serializability checking (experiment E11).
//!
//! The paper's correctness criterion (Section 1): "the concurrent
//! execution of transactions on replicated data is equivalent to a serial
//! execution on non-replicated data." The checker reconstructs each
//! group's commit order from `TxnCommitted` observations, derives object
//! version chains, and builds the standard conflict graph
//! (write→read, write→write, read→write edges); the execution is
//! one-copy serializable iff the graph is acyclic.
//!
//! Version information comes from the completed-call records themselves:
//! every base-version read carries the object version it observed, and
//! each committed write bumps the object's version — identically on every
//! replica, which is what reduces the *replicated* history to a
//! *one-copy* history.

use std::collections::{BTreeMap, BTreeSet};
use vsr_core::cohort::Observation;
use vsr_core::gstate::ObjectAccess;
use vsr_core::types::{Aid, GroupId, ObjectId};

/// A serializability violation (or a checker-detected inconsistency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The conflict graph has a cycle involving these transactions.
    Cycle(Vec<Aid>),
    /// A read observed a version no committed write produced.
    PhantomVersion {
        /// The reading transaction.
        reader: Aid,
        /// Where.
        group: GroupId,
        /// The object.
        oid: ObjectId,
        /// The version read.
        version: u64,
    },
    /// Two cohorts reported different effects for the same commit.
    DivergentCommit {
        /// The transaction.
        aid: Aid,
        /// The group where reports diverge.
        group: GroupId,
    },
    /// A leased read observed an object version older than the latest
    /// committed version at its linearization point — the read-lease
    /// protocol let a deposed primary serve state the new view had
    /// already overwritten.
    StaleRead {
        /// The leased read-only transaction.
        reader: Aid,
        /// The group whose lease failed.
        group: GroupId,
        /// The object read stale.
        oid: ObjectId,
        /// The version the read observed.
        version: u64,
        /// The latest version committed before the read executed.
        latest: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Cycle(aids) => {
                write!(f, "serialization cycle among {} transactions: ", aids.len())?;
                for (i, aid) in aids.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{aid}")?;
                }
                Ok(())
            }
            Violation::PhantomVersion { reader, group, oid, version } => write!(
                f,
                "transaction {reader} read version {version} of {group}/{oid}, which no \
                 committed write produced"
            ),
            Violation::DivergentCommit { aid, group } => {
                write!(f, "cohorts disagree on the effects of {aid} at {group}")
            }
            Violation::StaleRead { reader, group, oid, version, latest } => write!(
                f,
                "leased read {reader} observed version {version} of {group}/{oid} after version \
                 {latest} had committed"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// One committed transaction's effects at one group, deduplicated across
/// cohorts.
#[derive(Debug, Clone)]
struct CommitEntry {
    group: GroupId,
    aid: Aid,
    accesses: Vec<ObjectAccess>,
}

/// Deduplicate `TxnCommitted` observations into per-group commit logs in
/// first-observation order (= record order: the then-primary installs
/// first, in buffer order).
fn build_commit_log(observations: &[(u64, Observation)]) -> Result<Vec<CommitEntry>, Violation> {
    let mut seen: BTreeMap<(GroupId, Aid), Vec<ObjectAccess>> = BTreeMap::new();
    let mut log = Vec::new();
    for (_, obs) in observations {
        let Observation::TxnCommitted { group, aid, accesses, .. } = obs else {
            continue;
        };
        match seen.get(&(*group, *aid)) {
            None => {
                seen.insert((*group, *aid), accesses.clone());
                log.push(CommitEntry { group: *group, aid: *aid, accesses: accesses.clone() });
            }
            Some(first) => {
                if first != accesses {
                    return Err(Violation::DivergentCommit { aid: *aid, group: *group });
                }
            }
        }
    }
    Ok(log)
}

/// The stale-read oracle: leased reads promise *linearizable* reads, a
/// stronger contract than the serializability the conflict graph checks.
/// Replay the observation stream in order, bumping per-(group, object)
/// version counters at each commit's first observation (the
/// then-primary's install, which precedes any leased read of the new
/// version in the stream); a leased read whose recorded `read_version`
/// is older than the counter at its linearization point — its position
/// in the stream — observed state the system had already overwritten.
fn check_leased_reads(observations: &[(u64, Observation)]) -> Result<(), Violation> {
    let mut seen: BTreeSet<(GroupId, Aid)> = BTreeSet::new();
    let mut latest: BTreeMap<(GroupId, ObjectId), u64> = BTreeMap::new();
    for (_, obs) in observations {
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "only commits and leased reads move the version counters"
        )]
        match obs {
            Observation::TxnCommitted { group, aid, accesses, .. }
                if seen.insert((*group, *aid)) =>
            {
                for access in accesses {
                    if access.written.is_some() {
                        *latest.entry((*group, access.oid)).or_insert(0) += 1;
                    }
                }
            }
            Observation::LeasedRead { group, aid, accesses, .. } => {
                for access in accesses {
                    let Some(read_v) = access.read_version else { continue };
                    let cur = latest.get(&(*group, access.oid)).copied().unwrap_or(0);
                    if read_v < cur {
                        return Err(Violation::StaleRead {
                            reader: *aid,
                            group: *group,
                            oid: access.oid,
                            version: read_v,
                            latest: cur,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Check one-copy serializability of the committed transactions recorded
/// in `observations`.
///
/// # Errors
///
/// Returns the violation found, if any.
pub fn check(observations: &[(u64, Observation)]) -> Result<(), Violation> {
    check_leased_reads(observations)?;
    let log = build_commit_log(observations)?;

    // Replay: assign version numbers to writes in commit order, per
    // (group, object).
    let mut version_of: BTreeMap<(GroupId, ObjectId), u64> = BTreeMap::new();
    // (group, oid, version) -> writer
    let mut writer_of: BTreeMap<(GroupId, ObjectId, u64), Aid> = BTreeMap::new();
    for entry in &log {
        for access in &entry.accesses {
            if access.written.is_some() {
                let v = version_of.entry((entry.group, access.oid)).or_insert(0);
                *v += 1;
                writer_of.insert((entry.group, access.oid, *v), entry.aid);
            }
        }
    }

    // Build the conflict graph.
    let mut nodes: BTreeSet<Aid> = BTreeSet::new();
    let mut edges: BTreeMap<Aid, BTreeSet<Aid>> = BTreeMap::new();
    let add_edge = |from: Aid, to: Aid, edges: &mut BTreeMap<Aid, BTreeSet<Aid>>| {
        if from != to {
            edges.entry(from).or_default().insert(to);
        }
    };
    for entry in &log {
        nodes.insert(entry.aid);
    }
    // Versions each transaction produced per object (to skip self-edges on
    // multi-write objects).
    for entry in &log {
        for access in &entry.accesses {
            let key = (entry.group, access.oid);
            // Read dependencies.
            if let Some(read_v) = access.read_version {
                if read_v > 0 {
                    match writer_of.get(&(entry.group, access.oid, read_v)) {
                        Some(&writer) => {
                            // wr: writer of version k → reader of k.
                            add_edge(writer, entry.aid, &mut edges);
                            nodes.insert(writer);
                        }
                        None => {
                            return Err(Violation::PhantomVersion {
                                reader: entry.aid,
                                group: entry.group,
                                oid: access.oid,
                                version: read_v,
                            });
                        }
                    }
                }
                // rw anti-dependency: reader of version k → writer of k+1.
                if let Some(&next_writer) = writer_of.get(&(entry.group, access.oid, read_v + 1)) {
                    add_edge(entry.aid, next_writer, &mut edges);
                }
            }
            // ww dependencies along the version chain.
            if access.written.is_some() {
                let total = version_of.get(&key).copied().unwrap_or(0);
                // Find this transaction's versions and link each to its
                // predecessor's writer.
                for v in 1..=total {
                    if writer_of.get(&(entry.group, access.oid, v)) == Some(&entry.aid) && v > 1 {
                        if let Some(&prev) = writer_of.get(&(entry.group, access.oid, v - 1)) {
                            add_edge(prev, entry.aid, &mut edges);
                        }
                    }
                }
            }
        }
    }

    // Cycle detection (iterative DFS with colors).
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<Aid, Color> = nodes.iter().map(|&a| (a, Color::White)).collect();
    for &start in &nodes {
        if color[&start] != Color::White {
            continue;
        }
        // Stack of (node, child iterator index).
        let mut stack: Vec<(Aid, Vec<Aid>, usize)> = Vec::new();
        color.insert(start, Color::Gray);
        let children: Vec<Aid> =
            edges.get(&start).map(|s| s.iter().copied().collect()).unwrap_or_default();
        stack.push((start, children, 0));
        while let Some((node, children, idx)) = stack.last_mut() {
            if *idx >= children.len() {
                color.insert(*node, Color::Black);
                stack.pop();
                continue;
            }
            let child = children[*idx];
            *idx += 1;
            match color.get(&child).copied().unwrap_or(Color::White) {
                Color::White => {
                    color.insert(child, Color::Gray);
                    let grand: Vec<Aid> =
                        edges.get(&child).map(|s| s.iter().copied().collect()).unwrap_or_default();
                    stack.push((child, grand, 0));
                }
                Color::Gray => {
                    // Cycle: collect the gray path from `child` to top.
                    let mut cycle: Vec<Aid> = stack
                        .iter()
                        .skip_while(|(n, _, _)| *n != child)
                        .map(|(n, _, _)| *n)
                        .collect();
                    cycle.push(child);
                    return Err(Violation::Cycle(cycle));
                }
                Color::Black => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsr_core::gstate::{LockMode, Value};
    use vsr_core::types::{Mid, ViewId, Viewstamp};

    const G: GroupId = GroupId(1);
    const O1: ObjectId = ObjectId(1);
    const O2: ObjectId = ObjectId(2);

    fn aid(seq: u64) -> Aid {
        Aid { group: GroupId(9), view: ViewId::initial(Mid(0)), seq }
    }

    fn write(oid: ObjectId) -> ObjectAccess {
        ObjectAccess {
            oid,
            mode: LockMode::Write,
            written: Some(Value::from(&b"x"[..])),
            read_version: None,
        }
    }

    fn read(oid: ObjectId, version: u64) -> ObjectAccess {
        ObjectAccess { oid, mode: LockMode::Read, written: None, read_version: Some(version) }
    }

    fn committed(aid: Aid, accesses: Vec<ObjectAccess>) -> (u64, Observation) {
        (
            0,
            Observation::TxnCommitted {
                group: G,
                mid: Mid(0),
                aid,
                accesses,
                vs: Viewstamp::default(),
            },
        )
    }

    #[test]
    fn empty_history_is_serializable() {
        assert_eq!(check(&[]), Ok(()));
    }

    #[test]
    fn serial_writes_ok() {
        let obs = vec![
            committed(aid(1), vec![write(O1)]),
            committed(aid(2), vec![read(O1, 1), write(O1)]),
            committed(aid(3), vec![read(O1, 2)]),
        ];
        assert_eq!(check(&obs), Ok(()));
    }

    #[test]
    fn write_skew_cycle_detected() {
        // T1 reads O1@0 writes O2; T2 reads O2@0 writes O1.
        // rw edges: T1→(writer of O1@1)=T2 and T2→(writer of O2@1)=T1.
        let obs = vec![
            committed(aid(1), vec![read(O1, 0), write(O2)]),
            committed(aid(2), vec![read(O2, 0), write(O1)]),
        ];
        assert!(matches!(check(&obs), Err(Violation::Cycle(_))));
    }

    #[test]
    fn phantom_version_detected() {
        let obs = vec![committed(aid(1), vec![read(O1, 5)])];
        assert!(matches!(check(&obs), Err(Violation::PhantomVersion { version: 5, .. })));
    }

    #[test]
    fn duplicate_observations_deduplicated() {
        let one = committed(aid(1), vec![write(O1)]);
        let same_from_backup = (
            10,
            Observation::TxnCommitted {
                group: G,
                mid: Mid(1),
                aid: aid(1),
                accesses: vec![write(O1)],
                vs: Viewstamp::default(),
            },
        );
        assert_eq!(check(&[one, same_from_backup]), Ok(()));
    }

    #[test]
    fn divergent_commits_detected() {
        let a = committed(aid(1), vec![write(O1)]);
        let b = (
            10,
            Observation::TxnCommitted {
                group: G,
                mid: Mid(1),
                aid: aid(1),
                accesses: vec![write(O2)],
                vs: Viewstamp::default(),
            },
        );
        assert!(matches!(check(&[a, b]), Err(Violation::DivergentCommit { .. })));
    }

    #[test]
    fn stale_read_cycle_detected() {
        // T1 writes O1 (v1). T2 writes O1 (v2). T3 reads O1@1 — T3 must
        // precede T2 (rw) and follow T1 (wr): fine, acyclic.
        let obs = vec![
            committed(aid(1), vec![write(O1)]),
            committed(aid(2), vec![read(O1, 1), write(O1)]),
            committed(aid(3), vec![read(O1, 1)]),
        ];
        assert_eq!(check(&obs), Ok(()));
        // But if T3 also wrote something T1 later read at a newer
        // version, a cycle appears. T3 writes O2 (v1), T1 reads O2@1:
        // T3→T1 (wr). T1→T2 (ww O1), T3 reads O1@1 → rw T3→T2. Still
        // acyclic. Force cycle: T2 reads O2@0 → rw T2→T3, with T3
        // reading O1@1 → rw T3→T2. Cycle T2↔T3.
        let obs2 = vec![
            committed(aid(1), vec![write(O1)]),
            committed(aid(2), vec![read(O1, 1), read(O2, 0), write(O1)]),
            committed(aid(3), vec![read(O1, 1), write(O2)]),
        ];
        assert!(matches!(check(&obs2), Err(Violation::Cycle(_))));
    }

    #[test]
    fn reads_of_initial_version_need_no_writer() {
        let obs = vec![committed(aid(1), vec![read(O1, 0)])];
        assert_eq!(check(&obs), Ok(()));
    }

    fn leased(aid: Aid, accesses: Vec<ObjectAccess>) -> (u64, Observation) {
        (0, Observation::LeasedRead { group: G, mid: Mid(0), aid, req_id: aid.seq, accesses })
    }

    #[test]
    fn fresh_leased_read_ok() {
        let obs = vec![
            committed(aid(1), vec![write(O1)]),
            leased(aid(2), vec![read(O1, 1)]),
            committed(aid(3), vec![read(O1, 1), write(O1)]),
            leased(aid(4), vec![read(O1, 2)]),
        ];
        assert_eq!(check(&obs), Ok(()));
    }

    #[test]
    fn stale_leased_read_detected() {
        // Version 2 of O1 commits, then a (deposed) leaseholder serves
        // version 1: linearizability violated even though the conflict
        // graph is clean.
        let obs = vec![
            committed(aid(1), vec![write(O1)]),
            committed(aid(2), vec![read(O1, 1), write(O1)]),
            leased(aid(3), vec![read(O1, 1)]),
        ];
        assert!(matches!(
            check(&obs),
            Err(Violation::StaleRead { version: 1, latest: 2, oid: O1, .. })
        ));
    }

    #[test]
    fn leased_read_before_commit_not_stale() {
        // The leased read linearizes before the overwriting commit: fine.
        let obs = vec![
            committed(aid(1), vec![write(O1)]),
            leased(aid(3), vec![read(O1, 1)]),
            committed(aid(2), vec![read(O1, 1), write(O1)]),
        ];
        assert_eq!(check(&obs), Ok(()));
    }

    #[test]
    fn duplicate_backup_commits_do_not_double_bump_for_leases() {
        let primary = committed(aid(1), vec![write(O1)]);
        let backup = (
            10,
            Observation::TxnCommitted {
                group: G,
                mid: Mid(1),
                aid: aid(1),
                accesses: vec![write(O1)],
                vs: Viewstamp::default(),
            },
        );
        let read_after = leased(aid(2), vec![read(O1, 1)]);
        assert_eq!(check(&[primary, backup, read_after]), Ok(()));
    }

    #[test]
    fn violation_display_nonempty() {
        for v in [
            Violation::Cycle(vec![aid(1), aid(2)]),
            Violation::PhantomVersion { reader: aid(1), group: G, oid: O1, version: 3 },
            Violation::DivergentCommit { aid: aid(1), group: G },
            Violation::StaleRead { reader: aid(1), group: G, oid: O1, version: 1, latest: 2 },
        ] {
            assert!(!v.to_string().is_empty());
        }
    }
}

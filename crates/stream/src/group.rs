//! Consumer groups: membership, deterministic cooperative rebalancing and
//! fenced offset commits.
//!
//! A [`GroupCoordinator`] tracks, per group, which members are alive, what
//! they subscribe to, and which partitions each one owns. Ownership moves
//! through a **cooperative, two-phase** rebalance:
//!
//! 1. a membership change (join, leave, session-timeout expiry) bumps the
//!    group **generation** and computes a target assignment; every member
//!    keeps the partitions it retains under the target and is asked to
//!    *revoke* the rest;
//! 2. each member commits final offsets for its revoked partitions, then
//!    acknowledges the generation ([`GroupCoordinator::ack`]); once every
//!    live member has acked, moved partitions are granted to their new
//!    owners and the group returns to [`GroupPhase::Stable`].
//!
//! Between revocation-ack and stabilization a moved partition is owned by
//! *nobody* — that gap is what makes the handoff exactly-once: the new
//! owner only starts reading after the old owner's final commit landed.
//!
//! Everything is deterministic: state lives in `BTreeMap`s, assignment
//! iterates members and partitions in sorted order, time comes from the
//! caller's [`IoCtx`], and every transition appends to a journal whose byte
//! serialization ([`GroupCoordinator::journal_bytes`]) is identical across
//! same-seed runs — the rebalance counterpart of the PR-5 tick journal.
//! Membership, generations and assignments live only here; the committed
//! offsets live in the metadata store under `group/`.

use crate::dispatcher::StreamDispatcher;
use crate::partition::Partition;
use common::chore::{Chore, TickReport};
use common::clock::{secs, Nanos};
use common::ctx::IoCtx;
use common::lockwitness::TrackedMutex;
use common::metrics::Metrics;
use common::{Error, Result};
use kvstore::{keys, WriteBatch};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A member's identity within its group (unique per service instance).
pub(crate) type MemberId = String;

/// A member whose last heartbeat is older than this is expired.
const SESSION_TIMEOUT: Nanos = secs(30);

/// Committed offsets of a group that has been empty this long are dropped
/// by the offset-retention chore.
pub const OFFSET_RETENTION: Nanos = secs(24 * 3600);

/// Where a group is in its rebalance cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum GroupPhase {
    /// Every live member owns exactly its target partitions.
    #[default]
    Stable,
    /// A generation bump is in flight; members are revoking and acking.
    Rebalancing,
}

/// One entry of the deterministic rebalance journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RebalanceEvent {
    /// `member` joined (or updated its subscriptions), starting `generation`.
    MemberJoined { at: Nanos, group: String, member: MemberId, generation: u64 },
    /// `member` left gracefully or was expired by the session timeout.
    MemberLeft { at: Nanos, group: String, member: MemberId, generation: u64, expired: bool },
    /// Generation `generation` began; `revoked` lists the partitions each
    /// member must hand back, in (member, partition) order.
    RebalanceStarted {
        at: Nanos,
        group: String,
        generation: u64,
        revoked: Vec<(MemberId, Partition)>,
    },
    /// Every member acked `generation`; `assignment` is the full stable
    /// ownership map, members in id order, partitions sorted.
    RebalanceCompleted {
        at: Nanos,
        group: String,
        generation: u64,
        assignment: Vec<(MemberId, Vec<Partition>)>,
    },
    /// The retention chore dropped `offsets` committed offsets of an
    /// expired (long-empty) group.
    OffsetsExpired { at: Nanos, group: String, offsets: u64 },
}

impl RebalanceEvent {
    /// One-line, byte-stable serialization (journal rows).
    fn render(&self, out: &mut String) {
        match self {
            RebalanceEvent::MemberJoined { at, group, member, generation } => {
                out.push_str(&format!("join t={at} g={group} m={member} gen={generation}\n"));
            }
            RebalanceEvent::MemberLeft { at, group, member, generation, expired } => {
                let why = if *expired { "expired" } else { "leave" };
                out.push_str(&format!(
                    "left t={at} g={group} m={member} gen={generation} why={why}\n"
                ));
            }
            RebalanceEvent::RebalanceStarted { at, group, generation, revoked } => {
                let rows: Vec<String> =
                    revoked.iter().map(|(m, p)| format!("{m}:{p}")).collect();
                out.push_str(&format!(
                    "rebalance t={at} g={group} gen={generation} revoke=[{}]\n",
                    rows.join(" ")
                ));
            }
            RebalanceEvent::RebalanceCompleted { at, group, generation, assignment } => {
                let rows: Vec<String> = assignment
                    .iter()
                    .map(|(m, ps)| {
                        let ps: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                        format!("{m}=({})", ps.join(","))
                    })
                    .collect();
                out.push_str(&format!(
                    "stable t={at} g={group} gen={generation} assign=[{}]\n",
                    rows.join(" ")
                ));
            }
            RebalanceEvent::OffsetsExpired { at, group, offsets } => {
                out.push_str(&format!("offsets-expired t={at} g={group} n={offsets}\n"));
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
struct MemberState {
    subscriptions: BTreeSet<String>,
    /// Partitions the member currently owns (may legally consume).
    assigned: BTreeSet<Partition>,
    /// Partitions the member must commit + release before acking.
    revoking: BTreeSet<Partition>,
    last_heartbeat: Nanos,
    /// Highest generation this member has acknowledged.
    acked_generation: u64,
}

#[derive(Debug, Default)]
struct GroupState {
    generation: u64,
    phase: GroupPhase,
    members: BTreeMap<MemberId, MemberState>,
    /// Target ownership for the current generation (granted at
    /// stabilization).
    target: BTreeMap<MemberId, BTreeSet<Partition>>,
    /// Virtual time the group became empty, for offset retention.
    empty_since: Option<Nanos>,
}

/// The consumer-group coordinator (one per [`crate::StreamService`]).
#[derive(Debug)]
pub struct GroupCoordinator {
    dispatcher: Arc<StreamDispatcher>,
    metrics: Metrics,
    state: TrackedMutex<BTreeMap<String, GroupState>>,
    journal: TrackedMutex<Vec<RebalanceEvent>>,
}

impl GroupCoordinator {
    /// A coordinator committing offsets through `dispatcher`.
    pub(crate) fn new(dispatcher: Arc<StreamDispatcher>, metrics: Metrics) -> Self {
        GroupCoordinator {
            dispatcher,
            metrics,
            state: TrackedMutex::new("stream.group.state", BTreeMap::new()),
            journal: TrackedMutex::new("stream.group.journal", Vec::new()),
        }
    }

    /// Join `group` as `member` subscribing to `topics` (or update the
    /// subscriptions of an existing member). Triggers a rebalance.
    pub fn join(&self, group: &str, member: &str, topics: &[String], ctx: &IoCtx) -> Result<()> {
        keys::check_name("consumer group", group)?;
        for t in topics {
            // Validate against live topology before mutating group state.
            self.dispatcher.partition_count(t)?;
        }
        let mut state = self.state.lock();
        let g = state.entry(group.to_string()).or_default();
        g.empty_since = None;
        let is_new = !g.members.contains_key(member);
        let subs: BTreeSet<String> = topics.iter().cloned().collect();
        let m = g.members.entry(member.to_string()).or_default();
        let unchanged = !is_new && m.subscriptions == subs;
        m.subscriptions = subs;
        m.last_heartbeat = ctx.now;
        if unchanged {
            return Ok(());
        }
        let generation = g.generation + 1;
        self.journal.lock().push(RebalanceEvent::MemberJoined {
            at: ctx.now,
            group: group.to_string(),
            member: member.to_string(),
            generation,
        });
        self.metrics.incr("stream.group.joins", 1);
        self.rebalance_locked(group, g, ctx.now);
        Ok(())
    }

    /// Leave `group` gracefully. The member's partitions move to the
    /// survivors in the triggered rebalance.
    pub fn leave(&self, group: &str, member: &str, ctx: &IoCtx) -> Result<()> {
        let mut state = self.state.lock();
        let g = state
            .get_mut(group)
            .ok_or_else(|| Error::NotFound(format!("consumer group {group}")))?;
        if g.members.remove(member).is_none() {
            return Err(Error::NotFound(format!("member {member} of group {group}")));
        }
        self.journal.lock().push(RebalanceEvent::MemberLeft {
            at: ctx.now,
            group: group.to_string(),
            member: member.to_string(),
            generation: g.generation + 1,
            expired: false,
        });
        self.metrics.incr("stream.group.leaves", 1);
        self.rebalance_locked(group, g, ctx.now);
        if g.members.is_empty() {
            g.empty_since = Some(ctx.now);
        }
        Ok(())
    }

    /// Record a heartbeat for `member` and expire any member of the group
    /// whose session timed out (each expiry triggers a rebalance).
    pub(crate) fn heartbeat(&self, group: &str, member: &str, ctx: &IoCtx) -> Result<()> {
        let mut state = self.state.lock();
        let g = state
            .get_mut(group)
            .ok_or_else(|| Error::NotFound(format!("consumer group {group}")))?;
        let m = g
            .members
            .get_mut(member)
            .ok_or_else(|| Error::NotFound(format!("member {member} of group {group}")))?;
        m.last_heartbeat = ctx.now;
        self.expire_locked(group, g, ctx.now);
        Ok(())
    }

    /// Expire timed-out members across *all* groups (crash detection for
    /// groups nobody is polling). Returns the number of expired members.
    pub(crate) fn expire_members(&self, ctx: &IoCtx) -> u64 {
        let mut state = self.state.lock();
        let mut expired = 0u64;
        for (name, g) in state.iter_mut() {
            let name = name.clone();
            expired += self.expire_locked(&name, g, ctx.now);
        }
        expired
    }

    /// The partitions `member` must commit and release before it can ack
    /// the current generation. Empty when the member is fully synced.
    pub(crate) fn revoked(&self, group: &str, member: &str) -> Result<Vec<Partition>> {
        let state = self.state.lock();
        let m = member_of(&state, group, member)?;
        Ok(m.revoking.iter().cloned().collect())
    }

    /// Whether `member` has acknowledged the group's current generation.
    pub(crate) fn is_synced(&self, group: &str, member: &str) -> Result<bool> {
        let state = self.state.lock();
        let g = state
            .get(group)
            .ok_or_else(|| Error::NotFound(format!("consumer group {group}")))?;
        let m = g
            .members
            .get(member)
            .ok_or_else(|| Error::NotFound(format!("member {member} of group {group}")))?;
        Ok(m.acked_generation == g.generation)
    }

    /// Acknowledge the current generation: the member declares its revoked
    /// partitions committed and released. When the last live member acks,
    /// moved partitions are granted and the group stabilizes. Returns the
    /// member's current owned set.
    pub fn ack(&self, group: &str, member: &str, ctx: &IoCtx) -> Result<BTreeSet<Partition>> {
        let mut state = self.state.lock();
        let g = state
            .get_mut(group)
            .ok_or_else(|| Error::NotFound(format!("consumer group {group}")))?;
        let generation = g.generation;
        let m = g
            .members
            .get_mut(member)
            .ok_or_else(|| Error::NotFound(format!("member {member} of group {group}")))?;
        m.revoking.clear();
        m.acked_generation = generation;
        self.maybe_stabilize_locked(group, g, ctx.now);
        Ok(g.members[member].assigned.clone())
    }

    /// The partitions `member` currently owns.
    pub(crate) fn assigned(&self, group: &str, member: &str) -> Result<BTreeSet<Partition>> {
        let state = self.state.lock();
        Ok(member_of(&state, group, member)?.assigned.clone())
    }

    /// Commit `offset` for `partition` on behalf of `member`.
    ///
    /// Fenced: the commit is only accepted while the member owns the
    /// partition — either assigned, or still held in its revoking set
    /// during a cooperative handoff. Anything else (a zombie from an older
    /// generation, a partition already moved on) is rejected, which is what
    /// keeps redelivery out of the protocol.
    pub(crate) fn commit(
        &self,
        group: &str,
        member: &str,
        partition: &Partition,
        offset: u64,
    ) -> Result<()> {
        {
            let state = self.state.lock();
            let m = member_of(&state, group, member)?;
            if !m.assigned.contains(partition) && !m.revoking.contains(partition) {
                self.metrics.incr("stream.group.fenced_commits", 1);
                return Err(Error::InvalidArgument(format!(
                    "fenced commit: member {member} of group {group} does not own {partition}"
                )));
            }
        }
        self.dispatcher.commit_offset(group, &partition.topic, partition.idx, offset);
        Ok(())
    }

    /// The committed offset of `partition` in `group`, if any.
    pub(crate) fn committed(&self, group: &str, partition: &Partition) -> Result<Option<u64>> {
        self.dispatcher.committed_offset(group, &partition.topic, partition.idx)
    }

    /// Whether `group` is stable (no rebalance in flight). Unknown groups
    /// are trivially stable.
    pub fn is_stable(&self, group: &str) -> bool {
        self.state
            .lock()
            .get(group)
            .map(|g| g.phase == GroupPhase::Stable)
            .unwrap_or(true)
    }

    /// The full current ownership map of `group`.
    pub fn assignment(&self, group: &str) -> BTreeMap<MemberId, BTreeSet<Partition>> {
        self.state
            .lock()
            .get(group)
            .map(|g| {
                g.members
                    .iter()
                    .map(|(m, s)| (m.clone(), s.assigned.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Subscribed partitions of `group` that no live member owns. Empty in
    /// any stable, fully-acked group — the coverage invariant the scale
    /// smoke test gates on.
    pub fn unassigned(&self, group: &str) -> Vec<Partition> {
        let state = self.state.lock();
        let Some(g) = state.get(group) else {
            return Vec::new();
        };
        let mut all: BTreeSet<Partition> = BTreeSet::new();
        let mut topics: BTreeSet<&String> = BTreeSet::new();
        for m in g.members.values() {
            topics.extend(m.subscriptions.iter());
        }
        for t in topics {
            if let Ok(n) = self.dispatcher.partition_count(t) {
                for idx in 0..n {
                    all.insert(Partition::new(t.clone(), idx));
                }
            }
        }
        for m in g.members.values() {
            for p in &m.assigned {
                all.remove(p);
            }
        }
        all.into_iter().collect()
    }

    /// Byte-stable serialization of the journal: same seed ⇒ identical
    /// bytes, the property the scale test pins.
    pub fn journal_bytes(&self) -> Vec<u8> {
        let journal = self.journal.lock();
        let mut out = String::new();
        for ev in journal.iter() {
            ev.render(&mut out);
        }
        out.into_bytes()
    }

    /// Drop committed offsets of groups that have been empty longer than
    /// [`OFFSET_RETENTION`]. Returns offsets dropped.
    pub(crate) fn retention_sweep(&self, ctx: &IoCtx) -> u64 {
        let mut state = self.state.lock();
        let mut dropped = 0u64;
        let expired: Vec<String> = state
            .iter()
            .filter(|(_, g)| {
                g.members.is_empty()
                    && g.empty_since
                        .map(|t| ctx.now.saturating_sub(t) >= OFFSET_RETENTION)
                        .unwrap_or(false)
            })
            .map(|(name, _)| name.clone())
            .collect();
        for group in expired {
            let kv = self.dispatcher.metadata();
            let offsets = kv.scan_prefix(keys::group_offsets(&group).as_bytes());
            // One batch: one WAL frame, and a crash drops all or none.
            let mut batch = WriteBatch::new();
            for (key, _) in &offsets {
                batch.delete(key.clone());
            }
            kv.apply(&batch);
            dropped += offsets.len() as u64;
            state.remove(&group);
            self.journal.lock().push(RebalanceEvent::OffsetsExpired {
                at: ctx.now,
                group,
                offsets: offsets.len() as u64,
            });
        }
        if dropped > 0 {
            self.metrics.incr("stream.group.offsets_expired", dropped);
        }
        dropped
    }

    fn expire_locked(&self, group: &str, g: &mut GroupState, now: Nanos) -> u64 {
        let dead: Vec<MemberId> = g
            .members
            .iter()
            .filter(|(_, m)| now.saturating_sub(m.last_heartbeat) >= SESSION_TIMEOUT)
            .map(|(id, _)| id.clone())
            .collect();
        if dead.is_empty() {
            return 0;
        }
        for id in &dead {
            g.members.remove(id);
            self.journal.lock().push(RebalanceEvent::MemberLeft {
                at: now,
                group: group.to_string(),
                member: id.clone(),
                generation: g.generation + 1,
                expired: true,
            });
        }
        self.metrics.incr("stream.group.expired_members", dead.len() as u64);
        self.rebalance_locked(group, g, now);
        if g.members.is_empty() {
            g.empty_since = Some(now);
        }
        dead.len() as u64
    }

    /// Begin generation `g.generation + 1`: compute the target, mark moved
    /// partitions for revocation, journal the start, and stabilize
    /// immediately if nothing needs handing off.
    fn rebalance_locked(&self, group: &str, g: &mut GroupState, now: Nanos) {
        g.generation += 1;
        g.phase = GroupPhase::Rebalancing;
        g.target = self.compute_target(g);
        let mut revoked: Vec<(MemberId, Partition)> = Vec::new();
        for (id, m) in g.members.iter_mut() {
            let target = g.target.get(id).cloned().unwrap_or_default();
            let lost: Vec<Partition> =
                m.assigned.iter().filter(|p| !target.contains(*p)).cloned().collect();
            for p in lost {
                m.assigned.remove(&p);
                m.revoking.insert(p.clone());
                revoked.push((id.clone(), p));
            }
        }
        self.metrics.incr("stream.group.rebalances", 1);
        self.journal.lock().push(RebalanceEvent::RebalanceStarted {
            at: now,
            group: group.to_string(),
            generation: g.generation,
            revoked,
        });
        self.maybe_stabilize_locked(group, g, now);
    }

    /// Grant moved partitions and go stable once every member acked the
    /// current generation and holds nothing in its revoking set.
    fn maybe_stabilize_locked(&self, group: &str, g: &mut GroupState, now: Nanos) {
        if g.phase != GroupPhase::Rebalancing {
            return;
        }
        let generation = g.generation;
        let all_acked = g
            .members
            .values()
            .all(|m| m.acked_generation == generation && m.revoking.is_empty());
        if !all_acked {
            return;
        }
        for (id, m) in g.members.iter_mut() {
            m.assigned = g.target.get(id).cloned().unwrap_or_default();
        }
        g.phase = GroupPhase::Stable;
        let assignment: Vec<(MemberId, Vec<Partition>)> = g
            .members
            .iter()
            .map(|(id, m)| (id.clone(), m.assigned.iter().cloned().collect()))
            .collect();
        self.journal.lock().push(RebalanceEvent::RebalanceCompleted {
            at: now,
            group: group.to_string(),
            generation,
            assignment,
        });
    }

    /// The target assignment for the group's live members: contiguous
    /// ranges per topic. With `n` partitions and `m` members the first
    /// `n % m` members (in member-id order) take `ceil(n/m)`, the rest
    /// `floor(n/m)` — adjacent partitions stay together. Deterministic:
    /// members in id order, topics in name order.
    fn compute_target(&self, g: &GroupState) -> BTreeMap<MemberId, BTreeSet<Partition>> {
        let mut target: BTreeMap<MemberId, BTreeSet<Partition>> =
            g.members.keys().map(|id| (id.clone(), BTreeSet::new())).collect();
        let mut topics: BTreeMap<&String, Vec<&MemberId>> = BTreeMap::new();
        for (id, m) in &g.members {
            for t in &m.subscriptions {
                topics.entry(t).or_default().push(id);
            }
        }
        for (topic, subscribers) in topics {
            let Ok(n) = self.dispatcher.partition_count(topic) else {
                // Topic deleted since subscription: nothing to assign.
                continue;
            };
            let m = subscribers.len() as u32;
            if m == 0 {
                continue;
            }
            let base = n / m;
            let extra = n % m;
            let mut next = 0u32;
            for (k, member) in subscribers.iter().enumerate() {
                let take = base + if (k as u32) < extra { 1 } else { 0 };
                for idx in next..next + take {
                    target
                        .entry((*member).clone())
                        .or_default()
                        .insert(Partition::new(topic.clone(), idx));
                }
                next += take;
            }
        }
        target
    }
}

fn member_of<'a>(
    state: &'a BTreeMap<String, GroupState>,
    group: &str,
    member: &str,
) -> Result<&'a MemberState> {
    state
        .get(group)
        .ok_or_else(|| Error::NotFound(format!("consumer group {group}")))?
        .members
        .get(member)
        .ok_or_else(|| Error::NotFound(format!("member {member} of group {group}")))
}

/// Background chore dropping committed offsets of long-empty groups, and
/// sweeping session-timed-out members of groups nobody polls. Registered
/// under the `core::chore` maintenance runtime by `StreamLake`.
#[derive(Debug)]
pub struct OffsetRetentionChore {
    coordinator: Arc<GroupCoordinator>,
}

impl OffsetRetentionChore {
    /// A chore sweeping `coordinator`.
    pub fn new(coordinator: Arc<GroupCoordinator>) -> Self {
        OffsetRetentionChore { coordinator }
    }
}

impl Chore for OffsetRetentionChore {
    fn name(&self) -> &'static str {
        "offset-retention"
    }

    fn tick(&self, ctx: &IoCtx) -> Result<TickReport> {
        let expired = self.coordinator.expire_members(ctx);
        let dropped = self.coordinator.retention_sweep(ctx);
        Ok(TickReport { work_done: expired + dropped, finished_at: ctx.now })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopicConfig;
    use crate::service::tests::test_service;

    fn generation(c: &GroupCoordinator, group: &str) -> u64 {
        c.state.lock().get(group).map(|g| g.generation).unwrap_or(0)
    }

    fn members(c: &GroupCoordinator, group: &str) -> Vec<MemberId> {
        c.state
            .lock()
            .get(group)
            .map(|g| g.members.keys().cloned().collect())
            .unwrap_or_default()
    }

    fn coordinator_with_topic(partitions: u32) -> Arc<GroupCoordinator> {
        let svc = test_service(2, false);
        svc.create_topic("t", TopicConfig::with_partitions(partitions)).unwrap();
        svc.groups().clone()
    }

    fn join_and_settle(c: &GroupCoordinator, group: &str, members: &[&str]) {
        for m in members {
            c.join(group, m, &["t".to_string()], &IoCtx::new(0)).unwrap();
        }
        // Cooperative settle: everyone commits nothing and acks.
        for _ in 0..members.len() {
            for m in members {
                c.ack(group, m, &IoCtx::new(0)).unwrap();
            }
        }
    }

    #[test]
    fn single_member_owns_everything() {
        let c = coordinator_with_topic(6);
        join_and_settle(&c, "g", &["m1"]);
        assert!(c.is_stable("g"));
        let owned = c.assigned("g", "m1").unwrap();
        assert_eq!(owned.len(), 6);
        assert!(c.unassigned("g").is_empty());
    }

    #[test]
    fn range_assignment_is_contiguous_and_balanced() {
        let c = coordinator_with_topic(7);
        join_and_settle(&c, "g", &["a", "b", "c"]);
        let assign = c.assignment("g");
        let sizes: Vec<usize> = assign.values().map(|s| s.len()).collect();
        // 7 over 3 members: 3, 2, 2 in member order.
        assert_eq!(sizes, vec![3, 2, 2]);
        // Member "a" holds the leading contiguous range.
        let a: Vec<u32> = assign["a"].iter().map(|p| p.idx).collect();
        assert_eq!(a, vec![0, 1, 2]);
        assert!(c.unassigned("g").is_empty());
    }

    #[test]
    fn join_moves_partitions_cooperatively() {
        let c = coordinator_with_topic(4);
        join_and_settle(&c, "g", &["a"]);
        assert_eq!(c.assigned("g", "a").unwrap().len(), 4);
        let gen_before = generation(&c, "g");

        // b joins: a must first revoke the moved half...
        c.join("g", "b", &["t".to_string()], &IoCtx::new(0)).unwrap();
        assert!(!c.is_stable("g"));
        assert_eq!(generation(&c, "g"), gen_before + 1);
        let revoked = c.revoked("g", "a").unwrap();
        assert_eq!(revoked.len(), 2, "half the partitions move");
        // ...and until a acks, b owns nothing (the handoff gap).
        c.ack("g", "b", &IoCtx::new(0)).unwrap();
        assert!(c.assigned("g", "b").unwrap().is_empty());
        assert!(!c.is_stable("g"));
        // a acks → the group stabilizes and b owns the moved partitions.
        c.ack("g", "a", &IoCtx::new(0)).unwrap();
        assert!(c.is_stable("g"));
        assert_eq!(c.assigned("g", "a").unwrap().len(), 2);
        assert_eq!(c.assigned("g", "b").unwrap().len(), 2);
        assert!(c.unassigned("g").is_empty());
    }

    #[test]
    fn leave_returns_partitions_to_survivors() {
        let c = coordinator_with_topic(4);
        join_and_settle(&c, "g", &["a", "b"]);
        c.leave("g", "b", &IoCtx::new(0)).unwrap();
        c.ack("g", "a", &IoCtx::new(0)).unwrap();
        assert!(c.is_stable("g"));
        assert_eq!(c.assigned("g", "a").unwrap().len(), 4);
        assert!(c.assigned("g", "b").is_err(), "departed member is forgotten");
    }

    #[test]
    fn session_timeout_expires_crashed_members() {
        let c = coordinator_with_topic(4);
        join_and_settle(&c, "g", &["a", "b"]);
        // b stops heartbeating; a heartbeats 31 virtual seconds later.
        let late = IoCtx::new(secs(31));
        c.heartbeat("g", "a", &late).unwrap();
        assert_eq!(members(&c, "g"), vec!["a".to_string()]);
        c.ack("g", "a", &late).unwrap();
        assert!(c.is_stable("g"));
        assert_eq!(c.assigned("g", "a").unwrap().len(), 4);
        // The journal recorded the expiry, not a graceful leave.
        let bytes = String::from_utf8(c.journal_bytes()).unwrap();
        assert!(bytes.contains("why=expired"), "{bytes}");
    }

    #[test]
    fn commits_are_fenced_by_ownership() {
        let c = coordinator_with_topic(2);
        join_and_settle(&c, "g", &["a"]);
        let p0 = Partition::new("t", 0);
        c.commit("g", "a", &p0, 5).unwrap();
        assert_eq!(c.committed("g", &p0).unwrap(), Some(5));
        // A member that never owned the partition is fenced.
        c.join("g", "b", &["t".to_string()], &IoCtx::new(0)).unwrap();
        let b_owns = c.assigned("g", "b").unwrap();
        assert!(b_owns.is_empty());
        assert!(c.commit("g", "b", &p0, 9).is_err(), "unowned commit must be fenced");
        // During the handoff, a may still commit what it is revoking.
        for p in c.revoked("g", "a").unwrap() {
            c.commit("g", "a", &p, 7).unwrap();
        }
    }

    #[test]
    fn journal_is_deterministic_across_identical_runs() {
        let run = || {
            let c = coordinator_with_topic(8);
            join_and_settle(&c, "g", &["a", "b"]);
            c.join("g", "c", &["t".to_string()], &IoCtx::new(secs(1))).unwrap();
            for m in ["a", "b", "c"] {
                c.ack("g", m, &IoCtx::new(secs(1))).unwrap();
            }
            c.leave("g", "a", &IoCtx::new(secs(2))).unwrap();
            for m in ["b", "c"] {
                c.ack("g", m, &IoCtx::new(secs(2))).unwrap();
            }
            c.journal_bytes()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same schedule must journal byte-identically");
    }

    #[test]
    fn retention_chore_drops_offsets_of_long_empty_groups() {
        let svc = test_service(1, false);
        svc.create_topic("t", TopicConfig::with_partitions(2)).unwrap();
        let c = svc.groups().clone();
        join_and_settle(&c, "g", &["a"]);
        c.commit("g", "a", &Partition::new("t", 0), 3).unwrap();
        c.leave("g", "a", &IoCtx::new(0)).unwrap();
        let chore = OffsetRetentionChore::new(c.clone());
        // Before retention elapses: nothing dropped.
        let early = chore.tick(&IoCtx::new(secs(3600))).unwrap();
        assert_eq!(early.work_done, 0);
        assert_eq!(c.committed("g", &Partition::new("t", 0)).unwrap(), Some(3));
        // After 24h of emptiness: offsets and group state are gone.
        let late = chore.tick(&IoCtx::new(secs(24 * 3600))).unwrap();
        assert_eq!(late.work_done, 1);
        assert_eq!(c.committed("g", &Partition::new("t", 0)).unwrap(), None);
        assert_eq!(generation(&c, "g"), 0, "group record dropped");
    }

    #[test]
    fn an_expired_groups_offsets_go_in_one_wal_frame() {
        let svc = test_service(1, false);
        svc.create_topic("t", TopicConfig::with_partitions(3)).unwrap();
        let c = svc.groups().clone();
        join_and_settle(&c, "g", &["a"]);
        for idx in 0..3 {
            c.commit("g", "a", &Partition::new("t", idx), 7).unwrap();
        }
        c.leave("g", "a", &IoCtx::new(0)).unwrap();
        let kv = svc.dispatcher().metadata();
        let frames = kv.wal_frames();
        let late = secs(24 * 3600);
        let tick = OffsetRetentionChore::new(c.clone()).tick(&IoCtx::new(late)).unwrap();
        assert_eq!(tick.work_done, 3, "three offsets dropped");
        assert_eq!(kv.wal_frames() - frames, 1, "three offsets, one batch");
        assert!(kv.scan_prefix(keys::group_offsets("g").as_bytes()).is_empty());
        let journal = String::from_utf8(c.journal_bytes()).unwrap();
        assert!(journal.ends_with(&format!("offsets-expired t={late} g=g n=3\n")), "{journal}");
    }
}

//! The consumer client API (Fig 7).
//!
//! Consumers are **group members**: subscribing registers the member with
//! the [`crate::group::GroupCoordinator`], which assigns each subscribed
//! partition to exactly one live member. `poll` heartbeats, plays its part
//! of any in-flight cooperative rebalance (commit + release revoked
//! partitions, then ack the generation), and fetches only from the
//! partitions this member owns — so a group of N consumers delivers every
//! record exactly once. Committing stores positions under the group in the
//! dispatcher's KV store, fenced by ownership, so a restarted member in
//! the same group resumes where the group left off. Dropping a consumer
//! leaves the group gracefully; a crashed consumer (one that just stops
//! polling) is expired by the session timeout.

use crate::object::ReadCtrl;
use crate::partition::Partition;
use crate::record::Record;
use crate::service::StreamService;
use common::ctx::IoCtx;
use common::Result;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One record delivered by [`Consumer::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsumedRecord {
    /// Topic the record came from.
    pub topic: String,
    /// Partition index within the topic.
    pub partition_idx: u32,
    /// Offset within the partition.
    pub offset: u64,
    /// The record itself.
    pub record: Record,
}

/// A consumer handle: one member of a consumer group.
#[derive(Debug)]
pub struct Consumer {
    svc: Arc<StreamService>,
    group: String,
    member: String,
    topics: Vec<String>,
    positions: BTreeMap<Partition, u64>,
    left: bool,
}

impl Consumer {
    pub(crate) fn new(svc: Arc<StreamService>, group: &str, member: String) -> Self {
        Consumer {
            svc,
            group: group.to_string(),
            member,
            topics: Vec::new(),
            positions: BTreeMap::new(),
            left: false,
        }
    }

    /// The consumer's group name.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// Subscribe to `topic`: joins (or updates) this member's group
    /// registration, triggering a cooperative rebalance. Partitions are
    /// owned only after the group settles — the next `poll` plays this
    /// member's part.
    pub fn subscribe(&mut self, topic: &str) -> Result<()> {
        if self.topics.iter().any(|t| t == topic) {
            return Ok(());
        }
        let mut topics = self.topics.clone();
        topics.push(topic.to_string());
        let ctx = IoCtx::new(self.svc.clock().now());
        self.svc.groups().join(&self.group, &self.member, &topics, &ctx)?;
        self.topics = topics;
        self.left = false;
        Ok(())
    }

    /// Poll for up to `max_records` committed records across this member's
    /// assigned partitions, advancing local positions. Records within a
    /// partition arrive in order.
    ///
    /// Each poll heartbeats and, when a rebalance is in flight, performs
    /// the cooperative handoff: committing final offsets for revoked
    /// partitions, releasing them, and acking the new generation.
    pub fn poll(&mut self, max_records: usize, ctx: &IoCtx) -> Result<Vec<ConsumedRecord>> {
        if self.topics.is_empty() {
            return Ok(Vec::new());
        }
        let groups = self.svc.groups().clone();
        groups.heartbeat(&self.group, &self.member, ctx)?;
        if !groups.is_synced(&self.group, &self.member)? {
            // Phase 1 of the cooperative rebalance: commit and release
            // everything this member must hand off, then ack.
            for p in groups.revoked(&self.group, &self.member)? {
                if let Some(pos) = self.positions.remove(&p) {
                    groups.commit(&self.group, &self.member, &p, pos)?;
                }
            }
            groups.ack(&self.group, &self.member, ctx)?;
        }
        let assigned = groups.assigned(&self.group, &self.member)?;
        // Reconcile local positions with ownership: drop what moved away,
        // resume newly granted partitions from the group's committed
        // offsets.
        self.positions.retain(|p, _| assigned.contains(p));
        for p in &assigned {
            if !self.positions.contains_key(p) {
                let start = groups.committed(&self.group, p).unwrap_or(0);
                self.positions.insert(p.clone(), start);
            }
        }
        let mut out = Vec::new();
        for (partition, pos) in self.positions.iter_mut() {
            if out.len() >= max_records {
                break;
            }
            let route = self.svc.dispatcher().route_partition(&partition.topic, partition.idx)?;
            let ctrl = ReadCtrl { max_records: max_records - out.len() };
            let (records, _) = self.svc.fetch_from(&route, *pos, ctrl, ctx)?;
            for (offset, record) in records {
                *pos = (*pos).max(offset + 1);
                out.push(ConsumedRecord {
                    topic: partition.topic.clone(),
                    partition_idx: partition.idx,
                    offset,
                    record,
                });
            }
        }
        Ok(out)
    }

    /// Commit current positions to the group (fenced by ownership).
    pub fn commit(&self) -> Result<()> {
        for (partition, &pos) in &self.positions {
            self.svc.groups().commit(&self.group, &self.member, partition, pos)?;
        }
        Ok(())
    }

    /// The local position of `partition_idx` in `topic` (next offset to
    /// read), if this member owns it.
    pub fn position(&self, topic: &str, partition_idx: u32) -> Option<u64> {
        self.positions.get(&Partition::new(topic, partition_idx)).copied()
    }

    /// The partitions this member currently owns (after its last poll).
    pub fn assignment(&self) -> Vec<Partition> {
        self.positions.keys().cloned().collect()
    }

    /// Leave the group without the graceful drop-leave — simulates a
    /// crash: the coordinator only notices when the session times out.
    pub fn abandon(mut self) {
        self.left = true;
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        if self.left || self.topics.is_empty() {
            return;
        }
        // slint:allow(R10): Drop has no caller ctx; leave is a metadata-only KV update at current virtual time
        let ctx = IoCtx::new(self.svc.clock().now());
        // Graceful leave on drop; a failure here (e.g. the group was
        // already retired) leaves expiry to the session timeout.
        // slint:allow(R11): drop cannot propagate; timeout is the backstop
        let _ = self.svc.groups().leave(&self.group, &self.member, &ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopicConfig;
    use crate::service::tests::test_service;
    use common::ctx::IoCtx;

    fn produce_n(svc: &Arc<StreamService>, topic: &str, n: usize) {
        let mut p = svc.producer();
        p.set_batch_size(1);
        for i in 0..n {
            p.send(topic, format!("key-{i}").into_bytes(), format!("msg-{i}").into_bytes(), &IoCtx::new(0))
                .unwrap();
        }
        for route in svc.dispatcher().topic_partitions(topic).unwrap() {
            svc.dispatcher().object_of(&route).unwrap().flush_at(&IoCtx::new(0)).unwrap();
        }
    }

    #[test]
    fn poll_receives_everything_in_partition_order() {
        let svc = test_service(2, false);
        svc.create_topic("t", TopicConfig::with_partitions(3)).unwrap();
        produce_n(&svc, "t", 30);
        let mut c = svc.consumer("g");
        c.subscribe("t").unwrap();
        let got = c.poll(100, &IoCtx::new(0)).unwrap();
        assert_eq!(got.len(), 30);
        // per-partition offsets strictly increase
        let mut last: BTreeMap<u32, u64> = BTreeMap::new();
        for r in &got {
            if let Some(&prev) = last.get(&r.partition_idx) {
                assert!(r.offset > prev);
            }
            last.insert(r.partition_idx, r.offset);
        }
        // the sole member owns every partition
        assert_eq!(c.assignment().len(), 3);
        // polling again finds nothing new
        assert!(c.poll(100, &IoCtx::new(0)).unwrap().is_empty());
    }

    #[test]
    fn committed_offsets_resume_group_position() {
        let svc = test_service(1, false);
        svc.create_topic("t", TopicConfig::with_partitions(1)).unwrap();
        produce_n(&svc, "t", 10);
        let mut c1 = svc.consumer("analytics");
        c1.subscribe("t").unwrap();
        assert_eq!(c1.poll(10, &IoCtx::new(0)).unwrap().len(), 10);
        c1.commit().unwrap();
        // c1 leaves; a new consumer in the same group starts after the
        // commit...
        drop(c1);
        produce_n(&svc, "t", 5);
        let mut c2 = svc.consumer("analytics");
        c2.subscribe("t").unwrap();
        assert_eq!(c2.poll(100, &IoCtx::new(0)).unwrap().len(), 5);
        // ...while a different group reads from the beginning.
        let mut c3 = svc.consumer("audit");
        c3.subscribe("t").unwrap();
        assert_eq!(c3.poll(100, &IoCtx::new(0)).unwrap().len(), 15);
    }

    #[test]
    fn two_members_split_the_topic_without_overlap() {
        let svc = test_service(2, false);
        svc.create_topic("t", TopicConfig::with_partitions(4)).unwrap();
        produce_n(&svc, "t", 40);
        let mut c1 = svc.consumer("g");
        c1.subscribe("t").unwrap();
        let mut c2 = svc.consumer("g");
        c2.subscribe("t").unwrap();
        // Settle the cooperative rebalance, then drain both members.
        let mut seen: BTreeMap<(u32, u64), u32> = BTreeMap::new();
        let mut total = 0;
        for _ in 0..6 {
            for c in [&mut c1, &mut c2] {
                for r in c.poll(100, &IoCtx::new(0)).unwrap() {
                    *seen.entry((r.partition_idx, r.offset)).or_insert(0) += 1;
                    total += 1;
                }
            }
        }
        assert_eq!(total, 40, "every record delivered");
        assert!(seen.values().all(|&c| c == 1), "no double delivery");
        assert_eq!(c1.assignment().len(), 2);
        assert_eq!(c2.assignment().len(), 2);
    }

    #[test]
    fn max_records_bounds_a_poll() {
        let svc = test_service(1, false);
        svc.create_topic("t", TopicConfig::with_partitions(1)).unwrap();
        produce_n(&svc, "t", 20);
        let mut c = svc.consumer("g");
        c.subscribe("t").unwrap();
        assert_eq!(c.poll(7, &IoCtx::new(0)).unwrap().len(), 7);
        assert_eq!(c.poll(100, &IoCtx::new(0)).unwrap().len(), 13);
    }

    #[test]
    fn double_subscribe_is_idempotent() {
        let svc = test_service(1, false);
        svc.create_topic("t", TopicConfig::with_partitions(1)).unwrap();
        produce_n(&svc, "t", 3);
        let mut c = svc.consumer("g");
        c.subscribe("t").unwrap();
        c.subscribe("t").unwrap();
        assert_eq!(c.poll(100, &IoCtx::new(0)).unwrap().len(), 3, "no duplicate delivery");
    }

    #[test]
    fn transactional_records_invisible_until_commit() {
        let svc = test_service(1, false);
        svc.create_topic("t", TopicConfig::with_partitions(1)).unwrap();
        let txn = svc.txns().begin();
        let mut p = svc.producer();
        p.set_batch_size(1);
        p.send_in_txn(txn, "t", b"k".to_vec(), b"secret".to_vec(), &IoCtx::new(0)).unwrap();
        let route = svc.dispatcher().route("t", b"k").unwrap();
        svc.dispatcher().object_of(&route).unwrap().flush_at(&IoCtx::new(0)).unwrap();

        let mut c = svc.consumer("g");
        c.subscribe("t").unwrap();
        assert!(c.poll(10, &IoCtx::new(0)).unwrap().is_empty(), "open txn must be hidden");
        svc.txns().commit(txn).unwrap();
        let got = c.poll(10, &IoCtx::new(0)).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].record.value, b"secret");
    }
}

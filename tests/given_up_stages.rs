//! A staged table insert that is given up must not leak its data files.
//!
//! `Transaction::insert` (and `TableStore::insert` / `commit_replace`)
//! write a data file — a PLog record plus its address entry — *before*
//! the commit is staged or decided. Every way such a stage can be given up
//! must reclaim those files: a stage that loses on the head intent, an
//! explicit abort, a dropped transaction, a decide that fails (flush or
//! prepare), a crashed coordinator's orphan aborted by recovery, an insert
//! that exhausts its retries and a replace that loses. One seeded schedule
//! walks every path and requires the PLog record count and physical bytes
//! after each failed attempt to equal those before it.
//!
//! A given-up stage must not consume a commit id either: a snapshot names
//! its commits as the range `base..=id`, which is only right while every
//! commit id of a table from its base up is published. The second test
//! walks the same paths plus a compaction replace and snapshot expiry and
//! checks that range against the cached commit entries after every step.

use common::clock::millis;
use common::ctx::IoCtx;
use common::Error;
use format::{DataType, Field, Row, Schema, Value};
use lake::{MetadataMode, ScanOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamlake::{StreamLake, StreamLakeConfig};

const TABLE: &str = "facts";

/// The ways a stage is given up, walked round-robin by the schedule.
#[derive(Debug, Clone, Copy)]
enum GiveUp {
    /// A rival stage collides with a live head intent.
    StageConflict,
    /// `Transaction::abort` after a successful stage.
    Abort,
    /// The transaction is dropped undecided.
    Drop,
    /// `decide`'s flush fails: the participant's object is gone.
    FlushFails,
    /// `decide`'s prepare fails: the participant no longer holds the txn.
    PrepareFails,
    /// The coordinator crashes before deciding; recovery aborts the orphan.
    Orphan,
    /// `TableStore::insert` runs out of retries against a live head intent.
    InsertExhausted,
    /// `TableStore::commit_replace` loses on the head intent after writing.
    ReplaceLoses,
}

const PATHS: [GiveUp; 8] = [
    GiveUp::StageConflict,
    GiveUp::Abort,
    GiveUp::Drop,
    GiveUp::FlushFails,
    GiveUp::PrepareFails,
    GiveUp::Orphan,
    GiveUp::InsertExhausted,
    GiveUp::ReplaceLoses,
];

fn rows(rng: &mut StdRng, round: usize) -> Vec<Row> {
    (0..rng.gen_range(1..=16i64))
        .map(|i| vec![Value::from(format!("r{round}")), Value::Int(i)])
        .collect()
}

/// What a leaked data file would grow: PLog records and physical bytes.
fn footprint(sl: &StreamLake) -> (usize, u64) {
    (sl.plog().record_count(), sl.plog().physical_bytes())
}

/// Run `path` once at `ctx`; the footprint must not move.
fn give_up(sl: &StreamLake, path: GiveUp, round: usize, rng: &mut StdRng, ctx: &IoCtx) {
    let topic = format!("side{round}");
    sl.stream()
        .create_topic(&topic, stream::TopicConfig::with_partitions(1))
        .unwrap();
    let route = sl.stream().dispatcher().route_partition(&topic, 0).unwrap();
    // The paths that lose on the head intent race a live stage holder.
    let holder = matches!(
        path,
        GiveUp::StageConflict | GiveUp::InsertExhausted | GiveUp::ReplaceLoses
    )
    .then(|| {
        let mut holder = sl.transaction();
        holder.insert(TABLE, &rows(rng, round), ctx).unwrap();
        holder
    });
    let mut txn = sl.transaction();
    if let GiveUp::PrepareFails = path {
        // A full producer batch reaches the object — its slice lands in the
        // PLog now, before the measurement — and registers it as a
        // participant; below, the object drops the transaction.
        for i in 0..stream::producer::DEFAULT_BATCH_SIZE {
            txn.send(&topic, format!("k{i}"), "v", ctx).unwrap();
        }
    }
    let before = footprint(sl);
    match path {
        GiveUp::StageConflict => {
            let mut rival = sl.transaction();
            let err = rival.insert(TABLE, &rows(rng, round), ctx).unwrap_err();
            assert!(matches!(err, Error::Conflict(_)), "{err:?}");
            rival.abort().unwrap();
        }
        GiveUp::InsertExhausted => {
            let err = sl
                .tables()
                .insert(TABLE, &rows(rng, round), ctx)
                .unwrap_err();
            assert!(matches!(err, Error::Conflict(_)), "{err:?}");
        }
        GiveUp::ReplaceLoses => {
            let base = sl.tables().current_snapshot(TABLE).unwrap();
            let victim = sl.tables().live_files(TABLE, ctx).unwrap()[0].path.clone();
            let added = vec![(String::new(), rows(rng, round))];
            let err = sl
                .tables()
                .commit_replace(TABLE, base, vec![victim], added, ctx)
                .unwrap_err();
            assert!(matches!(err, Error::Conflict(_)), "{err:?}");
        }
        _ => {
            txn.insert(TABLE, &rows(rng, round), ctx).unwrap();
            match path {
                GiveUp::Abort => txn.abort().unwrap(),
                GiveUp::Drop => drop(txn),
                GiveUp::FlushFails => {
                    txn.send(&topic, "k", "v", ctx).unwrap(); // buffered
                    sl.stream().objects().destroy(route.object_id).unwrap();
                    assert!(txn.decide(ctx).is_err());
                }
                GiveUp::PrepareFails => {
                    let object = sl.stream().dispatcher().object_of(&route).unwrap();
                    object.abort_txn(txn.id().raw());
                    let err = txn.decide(ctx).unwrap_err();
                    assert!(matches!(err, Error::TxnAborted(_)), "{err:?}");
                }
                _ => {
                    txn.simulate_crash();
                    let report = sl.recover_transactions(ctx).unwrap();
                    assert_eq!(report.aborted_cleaned, 1);
                }
            }
        }
    }
    assert_eq!(
        footprint(sl),
        before,
        "round {round}: {path:?} leaked its data files"
    );
    if let Some(mut holder) = holder {
        holder.abort().unwrap();
    }
}

/// A deployment holding the one empty table the schedules write.
fn deployment() -> StreamLake {
    let sl = StreamLake::new(StreamLakeConfig::small());
    let schema = Schema::new(vec![
        Field::new("k", DataType::Utf8),
        Field::new("n", DataType::Int64),
    ])
    .unwrap();
    sl.tables()
        .create_table(TABLE, schema, None, 1000, &IoCtx::new(0))
        .unwrap();
    sl
}

/// Commit one transactional insert at `ctx`; the rows it added.
fn commit_rows(sl: &StreamLake, rng: &mut StdRng, round: usize, ctx: &IoCtx) -> usize {
    let batch = rows(rng, round);
    let mut txn = sl.transaction();
    txn.insert(TABLE, &batch, ctx).unwrap();
    txn.commit(ctx).unwrap();
    batch.len()
}

#[test]
fn every_given_up_stage_reclaims_its_files() {
    let sl = deployment();
    let mut rng = StdRng::seed_from_u64(21);
    let mut committed = 0;
    for round in 0..2 * PATHS.len() {
        let ctx = IoCtx::new(millis(100) * (round as u64 + 1));
        // Commit something first, so every path runs against live history.
        committed += commit_rows(&sl, &mut rng, round, &ctx);
        give_up(&sl, PATHS[round % PATHS.len()], round, &mut rng, &ctx);
    }
    let end = IoCtx::new(millis(100) * 100);
    let visible = sl
        .tables()
        .select(TABLE, &ScanOptions::default(), &end)
        .unwrap()
        .rows
        .len();
    assert_eq!(visible, committed, "only committed rows are visible");
    assert_eq!(sl.mvcc().pending_intents(), 0);
    assert_eq!(
        sl.tables().live_files(TABLE, &end).unwrap().len(),
        2 * PATHS.len()
    );
}

/// Ids of the cache entries under `meta/<TABLE>/<kind>/`, ascending.
fn cached_ids(sl: &StreamLake, kind: &str) -> Vec<u64> {
    let prefix = format!("meta/{TABLE}/{kind}/");
    sl.plog()
        .kv()
        .scan_prefix(prefix.as_bytes())
        .iter()
        .map(|(key, _)| std::str::from_utf8(&key[prefix.len()..]).unwrap().parse().unwrap())
        .collect()
}

/// Every retained snapshot's `commit_ids()` names exactly the cached commit
/// entries at or below its id, and its parent is the snapshot before it.
fn assert_history_contiguous(sl: &StreamLake, step: &str) {
    let snapshots = cached_ids(sl, "snapshot");
    let commits = cached_ids(sl, "commit");
    let head = sl.tables().current_snapshot(TABLE).unwrap();
    assert_eq!(snapshots.last(), Some(&head), "{step}: the head snapshot is cached");
    let mut parent = None;
    for &id in &snapshots {
        let (snap, _) = sl
            .tables()
            .meta()
            .get_snapshot(TABLE, id, MetadataMode::Accelerated, &IoCtx::new(0))
            .unwrap();
        let named: Vec<u64> = snap.commit_ids().collect();
        let cached: Vec<u64> = commits.iter().copied().filter(|&c| c <= id).collect();
        assert_eq!(named, cached, "{step}: snapshot {id}");
        assert_eq!(snap.parent(), parent, "{step}: parent of snapshot {id}");
        parent = Some(id);
    }
}

#[test]
fn commit_ids_stay_contiguous_through_every_history_rewrite() {
    let sl = deployment();
    let mut rng = StdRng::seed_from_u64(28);
    let mut committed = 0;
    let mut round = 0;
    let mut at = || {
        round += 1;
        (round, IoCtx::new(millis(100) * round as u64))
    };
    for _ in 0..3 {
        let (round, ctx) = at();
        committed += commit_rows(&sl, &mut rng, round, &ctx);
        assert_history_contiguous(&sl, &format!("insert {round}"));
    }
    // Every way to lose a stage, the head-intent conflicts included.
    for path in PATHS {
        let (round, ctx) = at();
        give_up(&sl, path, round, &mut rng, &ctx);
        assert_history_contiguous(&sl, &format!("{path:?}"));
    }
    // A compaction replace: two live files become one.
    let (_, ctx) = at();
    let tables = sl.tables();
    let inputs: Vec<String> =
        tables.live_files(TABLE, &ctx).unwrap().into_iter().take(2).map(|f| f.path).collect();
    let mut merged = Vec::new();
    for path in &inputs {
        merged.extend(tables.read_file_rows(path, &ctx).unwrap().0);
    }
    let base = tables.current_snapshot(TABLE).unwrap();
    let info = tables
        .commit_replace(TABLE, base, inputs, vec![(String::new(), merged)], &ctx)
        .unwrap();
    assert_eq!((info.files_removed, info.files_added), (2, 1));
    assert_history_contiguous(&sl, "compaction replace");
    // Expire everything older than the last two snapshots, then commit on
    // top of the squashed base.
    let head = tables.current_snapshot(TABLE).unwrap();
    let (keep, _) = tables
        .meta()
        .get_snapshot(TABLE, head - 1, MetadataMode::Accelerated, &ctx)
        .unwrap();
    let (_, ctx) = at();
    let report = tables.expire_snapshots(TABLE, keep.timestamp, &ctx).unwrap();
    assert_eq!(report.snapshots_expired, head - 2);
    assert_history_contiguous(&sl, "expiry");
    let (round, ctx) = at();
    committed += commit_rows(&sl, &mut rng, round, &ctx);
    assert_history_contiguous(&sl, "insert after expiry");
    assert_eq!(cached_ids(&sl, "commit"), vec![head - 1, head, head + 1]);
    // The squash must not re-add the compacted inputs to the live index.
    let visible = tables.select(TABLE, &ScanOptions::default(), &ctx).unwrap().rows.len();
    assert_eq!(visible, committed, "only committed rows are visible");
}

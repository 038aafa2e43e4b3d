//! Deterministic MVCC interleaving tests.
//!
//! Each scenario drives a seeded schedule through [`MvccStore`] and pins
//! the outcome two ways: the semantic assertions (who wins, what a
//! snapshot sees, what recovery cleans) and the resolution journal, whose
//! byte encoding must be identical across same-seed runs. The journal is
//! the replay log of intent resolution, so byte-equality here is the
//! repo-wide determinism invariant applied to the transaction layer.

use common::Error;
use kvstore::store::KvStore;
use kvstore::{MvccStore, SharedKv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn key(rng: &mut StdRng, pool: u32) -> Vec<u8> {
    format!("k{:02}", rng.gen_range(0..pool)).into_bytes()
}

/// Materialized committed state: every key's newest version at `ts`.
fn visible_state(mvcc: &MvccStore, pool: u32, ts: u64) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
    (0..pool)
        .map(|i| {
            let k = format!("k{i:02}").into_bytes();
            let v = mvcc.read_at(&k, ts);
            (k, v)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// 1. write-write intent collision
// ---------------------------------------------------------------------------

/// One seeded run of the collision schedule; returns the journal bytes.
fn run_write_write_collisions(seed: u64) -> Vec<u8> {
    let mvcc = MvccStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..24u32 {
        let a = mvcc.begin();
        let b = mvcc.begin();
        let k = key(&mut rng, 4);
        // The seed picks which transaction reaches the key first; the
        // other must collide on the live intent immediately (no waiting).
        let (first, second) = if rng.gen_range(0..2u32) == 0 { (a, b) } else { (b, a) };
        mvcc.put(first.id, &k, format!("w{round}").as_bytes()).unwrap();
        let err = mvcc.put(second.id, &k, b"loser").unwrap_err();
        assert!(matches!(err, Error::Conflict(_)), "expected Conflict, got {err:?}");
        // The loser aborts cleanly; the winner commits and resolves.
        mvcc.abort(second.id).unwrap();
        let cts = mvcc.commit_decide(first.id).unwrap();
        mvcc.resolve_committed(first.id).unwrap();
        assert!(cts >= first.id, "commit ts can never precede the begin ts");
        assert_eq!(
            mvcc.read_at(&k, u64::MAX),
            Some(format!("w{round}").into_bytes()),
            "winner's write must be the visible version"
        );
    }
    assert_eq!(mvcc.pending_intents(), 0, "no intent survives the schedule");
    assert_eq!(mvcc.active_count(), 0);
    mvcc.journal_bytes()
}

#[test]
fn write_write_collision_is_deterministic() {
    let first = run_write_write_collisions(42);
    let second = run_write_write_collisions(42);
    assert_eq!(first, second, "same seed must replay byte-identically");
    assert!(!first.is_empty());
    // A different schedule produces a different resolution history.
    assert_ne!(first, run_write_write_collisions(43));
}

// ---------------------------------------------------------------------------
// 2. a read pushes the writer's commit timestamp
// ---------------------------------------------------------------------------

fn run_read_push(seed: u64) -> Vec<u8> {
    let mvcc = MvccStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..16u32 {
        let k = key(&mut rng, 3);
        let before = mvcc.read_at(&k, u64::MAX);

        let writer = mvcc.begin();
        mvcc.put(writer.id, &k, format!("v{round}").as_bytes()).unwrap();
        // The reader begins after the write intent exists, so its snapshot
        // timestamp sits above the writer's provisional timestamp.
        let reader = mvcc.begin();
        let seen = mvcc.get(reader.id, &k).unwrap();
        assert_eq!(seen, before, "reader must see beneath the live intent");

        // The read pushed the writer's provisional timestamp past the
        // reader's snapshot: the eventual commit lands above it.
        let cts = mvcc.commit_decide(writer.id).unwrap();
        assert!(
            cts > reader.read_ts,
            "round {round}: commit ts {cts} must exceed reader snapshot {}",
            reader.read_ts
        );
        mvcc.resolve_committed(writer.id).unwrap();

        // Snapshot stability: even after resolution the reader's timestamp
        // still excludes the pushed commit.
        assert_eq!(mvcc.read_at(&k, reader.read_ts), before);
        assert_eq!(mvcc.read_at(&k, cts), Some(format!("v{round}").into_bytes()));
        mvcc.abort(reader.id).unwrap();
    }
    assert_eq!(mvcc.pending_intents(), 0);
    mvcc.journal_bytes()
}

#[test]
fn read_pushes_writer_commit_timestamp() {
    let first = run_read_push(7);
    assert_eq!(first, run_read_push(7), "same seed must replay byte-identically");
}

// ---------------------------------------------------------------------------
// 3. orphaned-intent cleanup across a simulated coordinator crash
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Committed and resolved before the crash — must survive.
    Resolved,
    /// Decided but the coordinator died before resolving — recovery must
    /// roll the intents forward.
    DecidedUnresolved,
    /// Never decided, coordinator died — recovery must abort and clean.
    CrashedPending,
}

fn run_crash_recovery(seed: u64) -> (Vec<u8>, Vec<(Vec<u8>, Option<Vec<u8>>)>) {
    const POOL: u32 = 8;
    let mvcc = MvccStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut expected: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut fates = [0u32; 3];
    for i in 0..32u32 {
        let txn = mvcc.begin();
        let mut writes = Vec::new();
        for _ in 0..rng.gen_range(1..=3u32) {
            let k = key(&mut rng, POOL);
            if writes.iter().any(|(wk, _)| *wk == k) {
                continue; // one intent per key per txn
            }
            let v = format!("t{i}").into_bytes();
            match mvcc.put(txn.id, &k, &v) {
                Ok(()) => writes.push((k, v)),
                // An earlier "crashed" transaction may still hold an
                // unresolved intent on this key; skip it.
                Err(Error::Conflict(_)) => continue,
                Err(e) => panic!("unexpected write error: {e:?}"),
            }
        }
        let fate = match rng.gen_range(0..3u32) {
            0 => Fate::Resolved,
            1 => Fate::DecidedUnresolved,
            _ => Fate::CrashedPending,
        };
        fates[fate as usize] += 1;
        match fate {
            Fate::Resolved => {
                mvcc.commit_decide(txn.id).unwrap();
                mvcc.resolve_committed(txn.id).unwrap();
                expected.extend(writes);
            }
            Fate::DecidedUnresolved => {
                mvcc.commit_decide(txn.id).unwrap();
                mvcc.forget(txn.id); // coordinator dies holding the decision
                expected.extend(writes);
            }
            Fate::CrashedPending => {
                mvcc.forget(txn.id); // coordinator dies before deciding
            }
        }
    }
    assert!(fates.iter().all(|&n| n > 0), "seed must exercise every fate");

    // Process crash: only the WAL survives. Rebuild the store from its
    // bytes and run recovery on the rebuilt instance.
    let wal = mvcc.kv().with_read(|s| s.wal_bytes().to_vec());
    let recovered = MvccStore::over(SharedKv::from_store(KvStore::recover(wal).unwrap()));
    let report = recovered.recover().unwrap();
    assert_eq!(report.committed_resolved, u64::from(fates[Fate::DecidedUnresolved as usize]));
    assert_eq!(report.aborted_cleaned, u64::from(fates[Fate::CrashedPending as usize]));
    assert_eq!(recovered.pending_intents(), 0, "no orphaned intent survives recovery");

    // Every decided write is visible; last writer per key wins in schedule
    // order, and crashed-pending writes are gone.
    let mut last: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
    for (k, v) in expected {
        last.insert(k, v);
    }
    let state = visible_state(&recovered, POOL, u64::MAX);
    for (k, v) in &state {
        assert_eq!(v.as_ref(), last.get(k), "key {:?}", String::from_utf8_lossy(k));
    }

    // Recovery is idempotent: a second pass finds nothing to do.
    assert_eq!(recovered.recover().unwrap(), Default::default());
    (recovered.journal_bytes(), state)
}

#[test]
fn orphaned_intent_cleanup_is_deterministic() {
    let (journal_a, state_a) = run_crash_recovery(1234);
    let (journal_b, state_b) = run_crash_recovery(1234);
    assert_eq!(journal_a, journal_b, "same seed must replay byte-identically");
    assert_eq!(state_a, state_b);
    assert!(!journal_a.is_empty());
}

// ---------------------------------------------------------------------------
// 4. live ≡ recovered: one roll-forward serves both
// ---------------------------------------------------------------------------

mod live_equals_recovered {
    use common::clock::{millis, Nanos};
    use common::ctx::{IoCtx, Phase, SpanSink};
    use format::{DataType, Field, Row, Schema, Value};
    use lake::table::COMMIT_OVERHEAD;
    use lake::{Commit, MetadataMode, ScanOptions, Snapshot};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use streamlake::{StreamLake, StreamLakeConfig};

    const TABLES: [&str; 2] = ["dims", "facts"];

    /// Everything a deployment publishes, as the comparison sees it.
    #[derive(Debug, PartialEq)]
    struct Published {
        /// `finished_at` of every table commit, in publication order.
        finished_at: Vec<Nanos>,
        rows: Vec<Vec<Row>>,
        heads: Vec<u64>,
        metadata: Vec<(Commit, Snapshot)>,
        stream_visible: usize,
        journal: Vec<u8>,
    }

    /// Run the seeded schedule; `crash` kills every coordinator right
    /// after its decision and lets recovery finish the job.
    fn run(seed: u64, crash: bool) -> Published {
        let sl = StreamLake::new(StreamLakeConfig::small());
        sl.stream()
            .create_topic("events", stream::TopicConfig::with_partitions(2))
            .unwrap();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Utf8),
            Field::new("n", DataType::Int64),
        ])
        .unwrap();
        for t in TABLES {
            sl.tables()
                .create_table(t, schema.clone(), None, 1000, &IoCtx::new(0))
                .unwrap();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut finished_at = Vec::new();
        let mut two_table_rounds = 0;
        for round in 0..24u64 {
            // A sink of its own per round: its trail holds exactly the spans
            // this round's roll-forward left behind.
            let sink = Arc::new(SpanSink::default());
            let ctx = IoCtx::new(millis(500) * (round + 1)).with_sink(sink.clone());
            let mut txn = sl.transaction();
            let first = rng.gen_range(0..2usize);
            let both = rng.gen_range(0..3u32) == 0;
            two_table_rounds += u32::from(both);
            for table in [TABLES[first], TABLES[1 - first]].into_iter().take(1 + usize::from(both)) {
                let rows: Vec<Row> = (0..rng.gen_range(1..4i64))
                    .map(|i| vec![Value::from(format!("r{round}")), Value::Int(i)])
                    .collect();
                txn.insert(table, &rows, &ctx).unwrap();
            }
            if rng.gen_range(0..2u32) == 0 {
                txn.send("events", format!("r{round}"), "payload", &ctx).unwrap();
            }
            txn.decide(&ctx).unwrap();
            let commits = 1 + usize::from(both);
            if crash {
                txn.simulate_crash();
                let report = sl.recover_transactions(&ctx).unwrap();
                assert_eq!(report.committed_replayed, 1, "round {round}");
            } else {
                let infos = txn.resolve(&ctx).unwrap();
                assert_eq!(infos.len(), commits, "round {round}");
                // Live: the span and the returned info tell the same time.
                let told: Vec<Nanos> = infos.iter().map(|i| i.finished_at).collect();
                assert_eq!(told, overhead_spans(&sink), "round {round}");
            }
            // Recovered or live, every published commit leaves its
            // coordination-cost span.
            let spans = overhead_spans(&sink);
            assert_eq!(spans.len(), commits, "round {round}: one COMMIT_OVERHEAD span per commit");
            finished_at.extend(spans);
        }
        assert!(two_table_rounds > 0 && two_table_rounds < 24, "seed must mix both shapes");
        assert_eq!(sl.mvcc().pending_intents(), 0);
        assert_eq!(sl.stream().txns().active_count(), 0);

        let end = IoCtx::new(millis(500) * 100);
        let meta = sl.tables().meta();
        let mut published = Published {
            finished_at,
            rows: Vec::new(),
            heads: Vec::new(),
            metadata: Vec::new(),
            stream_visible: 0,
            journal: sl.mvcc().journal_bytes(),
        };
        for t in TABLES {
            let head = sl.tables().current_snapshot(t).unwrap();
            published.heads.push(head);
            published
                .rows
                .push(sl.tables().select(t, &ScanOptions::default(), &end).unwrap().rows);
            for id in 1..=head {
                let mode = MetadataMode::Accelerated;
                published.metadata.push((
                    meta.get_commit(t, id, mode, &end).unwrap().0,
                    meta.get_snapshot(t, id, mode, &end).unwrap().0,
                ));
            }
        }
        let mut probe = sl.consumer("probe");
        probe.subscribe("events").unwrap();
        published.stream_visible = probe.poll(1000, &end).unwrap().len();
        published
    }

    /// End times of the `COMMIT_OVERHEAD` spans in `sink`, in record order.
    fn overhead_spans(sink: &SpanSink) -> Vec<Nanos> {
        sink.trail()
            .iter()
            .filter(|s| s.phase == Phase::Meta && s.duration == COMMIT_OVERHEAD)
            .map(|s| s.start + s.duration)
            .collect()
    }

    #[test]
    fn live_commit_and_crash_recovery_publish_identically() {
        for seed in [11, 12] {
            let live = run(seed, false);
            let recovered = run(seed, true);
            assert!(!live.finished_at.is_empty() && live.stream_visible > 0);
            assert_eq!(live, recovered, "seed {seed}");
        }
    }
}

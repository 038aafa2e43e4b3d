//! Stream⇄table atomicity smoke gate.
//!
//! Drives a seeded schedule of cross-subsystem transactions
//! (`StreamLake::transaction()`: produce records AND stage a table commit
//! in one MVCC transaction) through commit, explicit abort, and simulated
//! coordinator crashes at both crash points — pending (before decide) and
//! decided-but-unresolved (after the record flip, before resolution).
//!
//! After every step it probes both sides and fails the gate on any
//! partial-visibility window: the number of stream-visible transactional
//! records must always agree with the number of table-visible rows, before
//! recovery and after `recover_transactions`. It also fails on surviving
//! write intents, leaked coordinator state, or a same-seed replay whose
//! resolution journal is not byte-identical.
//!
//! `cargo run --release -p bench --bin txn_atomic`

use common::ctx::{IoCtx, QosClass};
use format::{DataType, Field, Schema, Value};
use lake::ScanOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamlake::{StreamLake, StreamLakeConfig};

/// Transactions per run.
const ROUNDS: u32 = 24;
/// Records produced per transaction.
const MSGS_PER_TXN: usize = 2;

fn fail(msg: String) -> ! {
    eprintln!("txn_atomic: FAILED — {msg}");
    std::process::exit(1);
}

fn stream_visible(sl: &StreamLake, probe: u32, ctx: &IoCtx) -> usize {
    let mut c = sl.consumer(&format!("probe-{probe}"));
    if let Err(e) = c.subscribe("events") {
        fail(format!("probe subscribe: {e}"));
    }
    match c.poll(100_000, ctx) {
        Ok(records) => records.len(),
        Err(e) => fail(format!("probe poll: {e}")),
    }
}

fn table_visible(sl: &StreamLake, ctx: &IoCtx) -> usize {
    match sl.tables().select("facts", &ScanOptions::default(), ctx) {
        Ok(r) => r.rows.len(),
        Err(e) => fail(format!("probe select: {e}")),
    }
}

/// The invariant the gate exists for: at NO probe point may one service
/// have published a transaction's effects while the other has not.
fn check_atomic(sl: &StreamLake, committed: u32, probe: &mut u32, at: &str, ctx: &IoCtx) {
    *probe += 1;
    let stream_txns = stream_visible(sl, *probe, ctx) / MSGS_PER_TXN;
    let table_txns = table_visible(sl, ctx);
    if stream_txns != table_txns {
        fail(format!(
            "partial visibility {at}: {stream_txns} stream-visible transactions vs \
             {table_txns} table-visible"
        ));
    }
    if stream_txns != committed as usize {
        fail(format!(
            "{at}: {stream_txns} transactions visible, expected {committed}"
        ));
    }
}

fn run(seed: u64) -> Vec<u8> {
    let sl = StreamLake::new(StreamLakeConfig::small());
    if let Err(e) = sl.stream().create_topic("events", stream::TopicConfig::with_partitions(4)) {
        fail(format!("create_topic: {e}"));
    }
    let schema = match Schema::new(vec![
        Field::new("k", DataType::Utf8),
        Field::new("n", DataType::Int64),
    ]) {
        Ok(s) => s,
        Err(e) => fail(format!("schema: {e}")),
    };
    let ctx = sl.root_ctx(QosClass::Foreground);
    if let Err(e) = sl.tables().create_table("facts", schema, None, 10_000, &ctx) {
        fail(format!("create_table: {e}"));
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut committed = 0u32;
    let mut probe = 0u32;
    let mut fates = [0u32; 4];
    for round in 0..ROUNDS {
        let mut txn = sl.transaction();
        for m in 0..MSGS_PER_TXN {
            if let Err(e) = txn.send("events", format!("r{round}-{m}"), "payload", &ctx) {
                fail(format!("round {round} send: {e}"));
            }
        }
        let row = vec![Value::from(format!("r{round}")), Value::Int(i64::from(round))];
        if let Err(e) = txn.insert("facts", &[row], &ctx) {
            fail(format!("round {round} insert: {e}"));
        }
        let fate = rng.gen_range(0..4u32);
        fates[fate as usize] += 1;
        match fate {
            // Clean two-phase commit, probing the decided-but-unresolved
            // window in the middle: nothing may be visible inside it.
            0 => {
                if let Err(e) = txn.decide(&ctx) {
                    fail(format!("round {round} decide: {e}"));
                }
                check_atomic(&sl, committed, &mut probe, "between decide and resolve", &ctx);
                if let Err(e) = txn.resolve(&ctx) {
                    fail(format!("round {round} resolve: {e}"));
                }
                committed += 1;
            }
            // Explicit abort.
            1 => {
                if let Err(e) = txn.abort() {
                    fail(format!("round {round} abort: {e}"));
                }
            }
            // Coordinator crash before the decision: recovery aborts.
            2 => {
                txn.simulate_crash();
                check_atomic(&sl, committed, &mut probe, "after pending crash", &ctx);
                if let Err(e) = sl.recover_transactions(&ctx) {
                    fail(format!("round {round} recovery: {e}"));
                }
            }
            // Coordinator crash after the decision: recovery rolls the
            // whole transaction forward — on both services.
            _ => {
                if let Err(e) = txn.decide(&ctx) {
                    fail(format!("round {round} decide: {e}"));
                }
                txn.simulate_crash();
                check_atomic(&sl, committed, &mut probe, "after decided crash", &ctx);
                if let Err(e) = sl.recover_transactions(&ctx) {
                    fail(format!("round {round} recovery: {e}"));
                }
                committed += 1;
            }
        }
        check_atomic(&sl, committed, &mut probe, "after round", &ctx);
    }
    if fates.iter().any(|&n| n == 0) {
        fail(format!("seed {seed} did not exercise every fate: {fates:?}"));
    }
    if sl.mvcc().pending_intents() != 0 {
        fail(format!("{} write intents survived the schedule", sl.mvcc().pending_intents()));
    }
    if sl.stream().txns().active_count() != 0 {
        fail(format!(
            "{} coordinator entries leaked",
            sl.stream().txns().active_count()
        ));
    }
    println!(
        "txn_atomic: seed {seed}: {committed}/{ROUNDS} committed \
         (fates commit/abort/crash-pending/crash-decided = {fates:?})"
    );
    sl.mvcc().journal_bytes()
}

fn main() {
    let first = run(20240217);
    let second = run(20240217);
    if first != second {
        fail("same-seed replay diverged: resolution journals differ".to_string());
    }
    println!("txn_atomic: ok — no partial-visibility window; replay byte-identical");
}

//! Cross-subsystem transactions: stream⇄table atomic commits.
//!
//! The paper separates the streaming and lakehouse services but runs them
//! over one storage substrate; "separation is for better reunion" is this
//! module's API: one [`Transaction`] can produce records into topics AND
//! stage a table commit, and either everything becomes visible or nothing
//! does ("archive these segments AND commit the snapshot").
//!
//! Mechanically both sides share one [`MvccStore`] transaction: stream
//! participants are `s/` intents, the staged table metadata are `lake/`
//! intents, and the single durable record flip in
//! [`Transaction::decide`] is the commit point for both. From there a
//! transaction can only *roll forward*, and one function does it: the
//! transaction's surviving intents are read back, the table side publishes
//! the commits they carry, the stream side flips the participants they
//! name, and the intents resolve. [`Transaction::resolve`] and — after a
//! coordinator crash between decide and resolve —
//! [`StreamLake::recover_transactions`] enter that same function.
//!
//! [`MvccStore`]: kvstore::MvccStore

use crate::system::StreamLake;
use common::ctx::IoCtx;
use common::{Error, Result, TxnId};
use format::Row;
use lake::{CommitInfo, StagedTableCommit};
use stream::Producer;

/// What [`StreamLake::recover_transactions`] repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnRecoveryReport {
    /// Decided transactions whose effects were replayed and resolved.
    pub committed_replayed: u64,
    /// Orphaned pending transactions aborted and cleaned.
    pub aborted_cleaned: u64,
}

/// An open cross-subsystem transaction. Obtain via
/// [`StreamLake::transaction`]; drive with [`send`](Transaction::send) /
/// [`insert`](Transaction::insert), then [`commit`](Transaction::commit)
/// (or [`abort`](Transaction::abort)).
#[derive(Debug)]
pub struct Transaction<'a> {
    sl: &'a StreamLake,
    id: TxnId,
    producer: Producer,
    staged: Vec<StagedTableCommit>,
    decided: bool,
    done: bool,
}

impl StreamLake {
    /// Begin a transaction spanning the stream and table services.
    pub fn transaction(&self) -> Transaction<'_> {
        Transaction {
            id: self.stream().txns().begin(),
            producer: self.producer(),
            sl: self,
            staged: Vec::new(),
            decided: false,
            done: false,
        }
    }

    /// Roll a decided transaction forward from its surviving intents
    /// (`writes`, all it needs): publish the table commits they carry,
    /// flip the stream participants they name, resolve them. Every step is
    /// idempotent, so a crash anywhere in here is repaired by running it
    /// again.
    fn roll_forward(
        &self,
        txn: TxnId,
        writes: &[(Vec<u8>, Option<Vec<u8>>)],
        ctx: &IoCtx,
    ) -> Result<Vec<CommitInfo>> {
        let infos = self.tables().publish(writes, ctx)?;
        self.stream().txns().resolve(txn, writes)?;
        Ok(infos)
    }

    /// Crash recovery for cross-subsystem transactions: roll every decided
    /// transaction forward (the same function a live
    /// [`Transaction::resolve`] runs); abort and clean every orphaned
    /// pending transaction, discarding the data files it staged.
    /// Idempotent — after it returns, no transaction is half-visible and no
    /// orphaned intent survives.
    pub fn recover_transactions(&self, ctx: &IoCtx) -> Result<TxnRecoveryReport> {
        let mut report = TxnRecoveryReport::default();
        for d in self.mvcc().decided()? {
            self.roll_forward(TxnId(d.txn), &d.writes, ctx)?;
            report.committed_replayed += 1;
        }
        for p in self.mvcc().orphan_pending()? {
            self.stream().txns().abort_orphan(TxnId(p.txn), &p.writes)?;
            self.tables().discard_intents(&p.writes);
            report.aborted_cleaned += 1;
        }
        Ok(report)
    }
}

impl Transaction<'_> {
    /// The transaction id (== its MVCC record id).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Produce one record into `topic` inside this transaction. Invisible
    /// to committed readers until the transaction resolves.
    pub fn send(
        &mut self,
        topic: &str,
        key: impl Into<Vec<u8>>,
        value: impl Into<Vec<u8>>,
        ctx: &IoCtx,
    ) -> Result<()> {
        self.check_open()?;
        self.producer.send_in_txn(self.id, topic, key, value, ctx)?;
        Ok(())
    }

    /// Stage an INSERT of `rows` into `table` inside this transaction.
    /// The data files are written immediately; the commit metadata stays
    /// provisional until the transaction decides. One staged commit per
    /// table per transaction.
    pub fn insert(&mut self, table: &str, rows: &[Row], ctx: &IoCtx) -> Result<()> {
        self.check_open()?;
        if self.staged.iter().any(|s| s.table == table) {
            return Err(Error::InvalidArgument(format!(
                "transaction {} already stages a commit for table {table}",
                self.id
            )));
        }
        let staged = self.sl.tables().stage_insert(self.id.raw(), table, rows, ctx)?;
        self.staged.push(staged);
        Ok(())
    }

    /// Phase 1 + the commit point: flush buffered sends, prepare every
    /// stream participant, and flip the shared MVCC record to COMMITTED
    /// (one WAL frame covering both services). After this returns `Ok`,
    /// the transaction is durably decided but nothing is visible yet —
    /// call [`resolve`](Self::resolve) (or crash and let
    /// [`StreamLake::recover_transactions`] roll forward).
    pub fn decide(&mut self, ctx: &IoCtx) -> Result<u64> {
        self.check_open()?;
        if let Err(e) = self.producer.flush(ctx) {
            self.done = true;
            // Flush failure aborts the whole transaction (stream intents,
            // staged table metadata and files, the lot).
            self.sl.stream().txns().abort(self.id)?;
            self.discard_staged();
            return Err(e);
        }
        match self.sl.stream().txns().prepare_decide(self.id) {
            Ok(ts) => {
                self.decided = true;
                Ok(ts)
            }
            Err(e) => {
                // prepare_decide cleaned up the intents; the files remain.
                self.done = true;
                self.discard_staged();
                Err(e)
            }
        }
    }

    /// Phase 2: roll the decided transaction forward — publish staged
    /// table commits, flip stream participant visibility, resolve all
    /// intents. Requires a prior successful [`decide`](Self::decide).
    /// Returns one [`CommitInfo`] per staged table commit, in table-name
    /// order.
    pub fn resolve(&mut self, ctx: &IoCtx) -> Result<Vec<CommitInfo>> {
        if !self.decided || self.done {
            return Err(Error::InvalidArgument(format!(
                "transaction {} is not in the decided state",
                self.id
            )));
        }
        let writes = self.sl.mvcc().decided_writes(self.id.raw())?;
        let infos = self.sl.roll_forward(self.id, &writes, ctx)?;
        self.done = true;
        Ok(infos)
    }

    /// Commit: [`decide`](Self::decide) then [`resolve`](Self::resolve).
    /// Returns one [`CommitInfo`] per staged table commit.
    pub fn commit(&mut self, ctx: &IoCtx) -> Result<Vec<CommitInfo>> {
        self.decide(ctx)?;
        self.resolve(ctx)
    }

    /// Abort: discard buffered sends, stream intents, staged table metadata
    /// and the data files it staged. Fails once the transaction is decided
    /// (a durable decision can only roll forward).
    pub fn abort(&mut self) -> Result<()> {
        if self.done {
            return Ok(());
        }
        if self.decided {
            return Err(Error::InvalidArgument(format!(
                "transaction {} is decided; it can only resolve",
                self.id
            )));
        }
        self.done = true;
        self.sl.stream().txns().abort(self.id)?;
        self.discard_staged();
        Ok(())
    }

    /// Simulate a coordinator crash (tests, fault injection): drop all
    /// in-memory coordinator state while leaving the durable record and
    /// intents exactly as a process death would. Recovery must finish the
    /// job.
    pub fn simulate_crash(mut self) {
        self.done = true;
        self.sl.stream().txns().forget(self.id);
        self.sl.mvcc().forget(self.id.raw());
    }

    /// Reclaim the data files of every table commit this transaction
    /// staged; call once its intents are gone.
    fn discard_staged(&self) {
        for staged in &self.staged {
            self.sl.tables().discard(&staged.files);
        }
    }

    fn check_open(&self) -> Result<()> {
        if self.done || self.decided {
            return Err(Error::InvalidArgument(format!(
                "transaction {} is no longer open",
                self.id
            )));
        }
        Ok(())
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        // Best-effort cleanup: if the abort fails, recover_transactions
        // sweeps the leftovers (files included).
        if !self.done && !self.decided && self.sl.stream().txns().abort(self.id).is_ok() {
            self.discard_staged();
        }
        // A decided-but-unresolved transaction is intentionally left for
        // recovery to roll forward — aborting it here would be wrong.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{StreamLake, StreamLakeConfig};
    use common::ctx::QosClass;
    use format::{DataType, Field, Schema, Value};
    use lake::ScanOptions;
    use stream::TopicConfig;

    fn setup() -> StreamLake {
        let sl = StreamLake::new(StreamLakeConfig::small());
        sl.stream()
            .create_topic("events", TopicConfig::with_partitions(2))
            .unwrap();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Utf8),
            Field::new("n", DataType::Int64),
        ])
        .unwrap();
        sl.tables()
            .create_table("facts", schema, None, 1000, &sl.root_ctx(QosClass::Foreground))
            .unwrap();
        sl
    }

    fn stream_visible(sl: &StreamLake, ctx: &IoCtx) -> usize {
        let mut c = sl.consumer("probe");
        c.subscribe("events").unwrap();
        c.poll(1000, ctx).unwrap().len()
    }

    fn table_rows(sl: &StreamLake, ctx: &IoCtx) -> usize {
        sl.tables()
            .select("facts", &ScanOptions::default(), ctx)
            .unwrap()
            .rows
            .len()
    }

    #[test]
    fn stream_and_table_commit_atomically() {
        let sl = setup();
        let ctx = sl.root_ctx(QosClass::Foreground);
        let mut txn = sl.transaction();
        txn.send("events", "k1", "v1", &ctx).unwrap();
        txn.send("events", "k2", "v2", &ctx).unwrap();
        txn.insert("facts", &[vec![Value::from("a"), Value::Int(1)]], &ctx)
            .unwrap();
        // Nothing visible before commit.
        assert_eq!(stream_visible(&sl, &ctx), 0);
        assert_eq!(table_rows(&sl, &ctx), 0);
        let infos = txn.commit(&ctx).unwrap();
        assert_eq!(infos.len(), 1);
        assert_eq!(stream_visible(&sl, &ctx), 2);
        assert_eq!(table_rows(&sl, &ctx), 1);
        assert_eq!(sl.mvcc().pending_intents(), 0);
    }

    #[test]
    fn abort_hides_both_sides() {
        let sl = setup();
        let ctx = sl.root_ctx(QosClass::Foreground);
        let mut txn = sl.transaction();
        txn.send("events", "k", "v", &ctx).unwrap();
        txn.insert("facts", &[vec![Value::from("a"), Value::Int(1)]], &ctx)
            .unwrap();
        txn.abort().unwrap();
        assert_eq!(stream_visible(&sl, &ctx), 0);
        assert_eq!(table_rows(&sl, &ctx), 0);
        assert_eq!(sl.mvcc().pending_intents(), 0);
        assert_eq!(sl.tables().current_snapshot("facts").unwrap(), 0);
    }

    #[test]
    fn crash_after_decide_rolls_forward_on_recovery() {
        let sl = setup();
        let ctx = sl.root_ctx(QosClass::Foreground);
        let mut txn = sl.transaction();
        txn.send("events", "k", "v", &ctx).unwrap();
        txn.insert("facts", &[vec![Value::from("a"), Value::Int(1)]], &ctx)
            .unwrap();
        txn.decide(&ctx).unwrap();
        txn.simulate_crash();
        // Decided but unresolved: recovery must make both sides visible.
        let report = sl.recover_transactions(&ctx).unwrap();
        assert_eq!(report.committed_replayed, 1);
        assert_eq!(stream_visible(&sl, &ctx), 1);
        assert_eq!(table_rows(&sl, &ctx), 1);
        assert_eq!(sl.mvcc().pending_intents(), 0);
    }

    #[test]
    fn crash_before_decide_aborts_on_recovery() {
        let sl = setup();
        let ctx = sl.root_ctx(QosClass::Foreground);
        let mut txn = sl.transaction();
        txn.send("events", "k", "v", &ctx).unwrap();
        txn.insert("facts", &[vec![Value::from("a"), Value::Int(1)]], &ctx)
            .unwrap();
        // Force the buffered send down so the participant intent exists.
        txn.producer.flush(&ctx).unwrap();
        txn.simulate_crash();
        let report = sl.recover_transactions(&ctx).unwrap();
        assert_eq!(report.aborted_cleaned, 1);
        assert_eq!(stream_visible(&sl, &ctx), 0);
        assert_eq!(table_rows(&sl, &ctx), 0);
        assert_eq!(sl.mvcc().pending_intents(), 0);
        // Recovery is idempotent.
        let again = sl.recover_transactions(&ctx).unwrap();
        assert_eq!(again, TxnRecoveryReport::default());
    }

    #[test]
    fn double_insert_per_table_is_rejected() {
        let sl = setup();
        let ctx = sl.root_ctx(QosClass::Foreground);
        let mut txn = sl.transaction();
        txn.insert("facts", &[vec![Value::from("a"), Value::Int(1)]], &ctx)
            .unwrap();
        assert!(matches!(
            txn.insert("facts", &[vec![Value::from("b"), Value::Int(2)]], &ctx),
            Err(Error::InvalidArgument(_))
        ));
        txn.abort().unwrap();
    }

    #[test]
    fn dropped_transaction_cleans_up() {
        let sl = setup();
        let ctx = sl.root_ctx(QosClass::Foreground);
        {
            let mut txn = sl.transaction();
            txn.insert("facts", &[vec![Value::from("a"), Value::Int(1)]], &ctx)
                .unwrap();
        } // dropped without commit: best-effort abort
        assert_eq!(sl.mvcc().pending_intents(), 0);
        assert_eq!(sl.stream().txns().active_count(), 0);
        assert_eq!(table_rows(&sl, &ctx), 0);
    }
}

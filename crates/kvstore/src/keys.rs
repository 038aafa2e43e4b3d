//! The metadata keyspace: each key family of the deployment's one metadata
//! store (DESIGN.md, "One metadata home") with its prefix, its key builder
//! and, where a caller needs one, its parser; no other module builds a key.
//! Keys feed `PlogStore::shard_of`, so a builder's bytes never change. A
//! topic, group or table name is one `/`-separated segment of its keys:
//! [`check_name`] refuses a name that would span two.

use common::{Error, Result};

/// PLog record index (`PlogStore`).
pub const PLOG: &str = "plog/";
/// Committed MVCC versions (`MvccStore`).
pub const MVCC_VERSION: &str = "m/";
/// MVCC write intents (`MvccStore`).
pub const MVCC_INTENT: &str = "i/";
/// MVCC transaction records (`MvccStore`).
pub(crate) const MVCC_RECORD: &str = "t/";
/// Topic routes and configs (`StreamDispatcher`).
const TOPIC: &str = "topic/";
/// Committed consumer-group offsets (`StreamDispatcher`).
const GROUP: &str = "group/";
/// Table profiles (`Catalog`).
pub const CATALOG: &str = "catalog/";
/// Cached commits and snapshots (`MetadataCache`).
const META: &str = "meta/";
/// The live-file index (`MetadataCache`).
const LIVE: &str = "live/";
/// Persisted addresses of cache entries and data files (`MetadataCache`).
const ADDR: &str = "addr/";
/// The store's families: every key of the store is under exactly one.
pub const STORE_FAMILIES: [&str; 10] =
    [PLOG, MVCC_VERSION, MVCC_INTENT, MVCC_RECORD, TOPIC, GROUP, CATALOG, META, LIVE, ADDR];

/// Stream transaction participants (`TxnManager`).
pub const STREAM_PARTICIPANT: &str = "s/";
/// Table heads (`TableStore`).
const LAKE_HEAD: &str = "lake/head/";
/// Table commit bodies (`TableStore`).
pub const LAKE_COMMIT: &str = "lake/commit/";
/// Data-file liveness (`TableStore`).
pub const LAKE_LIVE: &str = "lake/live/";
/// The MVCC user-key families, stored escaped under `m/` and `i/`.
pub const MVCC_FAMILIES: [&str; 4] = [STREAM_PARTICIPANT, LAKE_HEAD, LAKE_COMMIT, LAKE_LIVE];

/// Refuse a `what` name (topic, group, table) that is empty or holds a
/// `/`, so two names can never build one key.
pub fn check_name(what: &str, name: &str) -> Result<()> {
    if name.is_empty() || name.contains('/') {
        return Err(Error::InvalidArgument(format!(
            "{what} name {name:?} must be non-empty and hold no '/'"
        )));
    }
    Ok(())
}

/// `plog/<shard BE u32>/<offset BE u64>`: one PLog record's index entry.
pub fn plog_index(shard: u32, offset: u64) -> Vec<u8> {
    [PLOG.as_bytes(), &shard.to_be_bytes(), b"/", &offset.to_be_bytes()].concat()
}

/// Above every index key of `shard` and below the next shard's.
pub fn plog_shard_end(shard: u32) -> Vec<u8> {
    [PLOG.as_bytes(), &shard.to_be_bytes(), &[b'/' + 1]].concat()
}

/// The (shard, offset) of a [`plog_index`] key.
pub fn parse_plog_index(key: &[u8]) -> Option<(u32, u64)> {
    let shard = key.get(PLOG.len()..PLOG.len() + 4)?.try_into().ok()?;
    let offset = key.get(PLOG.len() + 5..PLOG.len() + 13)?.try_into().ok()?;
    Some((u32::from_be_bytes(shard), u64::from_be_bytes(offset)))
}

/// `prefix` + `user` escaped: `0x00` becomes `0x00 0xFF`, and `0x00 0x00`
/// ends it, which sorts below every escape sequence — so composite keys
/// keep the user-key order and one is never a prefix of a sibling.
fn escaped(prefix: &str, user: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(prefix.len() + user.len() + 10);
    out.extend_from_slice(prefix.as_bytes());
    for &b in user {
        out.push(b);
        if b == 0 {
            out.push(0xFF);
        }
    }
    out.extend_from_slice(&[0, 0]);
    out
}

/// `m/<escaped user>`: the prefix of every committed version of `user`.
pub(crate) fn mvcc_versions(user: &[u8]) -> Vec<u8> {
    escaped(MVCC_VERSION, user)
}

/// `m/<escaped user><!ts BE>`: `!ts`, so newer versions sort first.
pub(crate) fn mvcc_version(user: &[u8], ts: u64) -> Vec<u8> {
    let mut k = mvcc_versions(user);
    k.extend_from_slice(&(!ts).to_be_bytes());
    k
}

/// The timestamp of an [`mvcc_version`] key.
pub(crate) fn parse_mvcc_version(key: &[u8]) -> Option<u64> {
    let ts = key.get(key.len().checked_sub(8)?..)?.try_into().ok()?;
    Some(!u64::from_be_bytes(ts))
}

/// `i/<escaped user>`: the (single) write intent on `user`.
pub(crate) fn mvcc_intent(user: &[u8]) -> Vec<u8> {
    escaped(MVCC_INTENT, user)
}

/// `t/<txn BE>`: a transaction's durable record.
pub(crate) fn mvcc_record(txn: u64) -> Vec<u8> {
    [MVCC_RECORD.as_bytes(), &txn.to_be_bytes()].concat()
}

/// The transaction of an [`mvcc_record`] key.
pub(crate) fn parse_mvcc_record(key: &[u8]) -> Option<u64> {
    let txn = key.strip_prefix(MVCC_RECORD.as_bytes())?.try_into().ok()?;
    Some(u64::from_be_bytes(txn))
}

/// `topic/<topic>/config`.
pub fn topic_config(topic: &str) -> String {
    format!("{TOPIC}{topic}/config")
}

/// `topic/<topic>/partition/`: the prefix of a topic's routes.
pub fn topic_routes(topic: &str) -> String {
    format!("{TOPIC}{topic}/partition/")
}

/// The route of partition `idx`, zero-padded so routes scan in order.
pub fn topic_route(topic: &str, idx: u32) -> String {
    format!("{}{idx:08}", topic_routes(topic))
}

/// `group/<group>/`: the prefix of a group's committed offsets.
pub fn group_offsets(group: &str) -> String {
    format!("{GROUP}{group}/")
}

/// `group/<group>/<topic>/<idx>`: one partition's committed offset.
pub fn group_offset(group: &str, topic: &str, idx: u32) -> String {
    format!("{GROUP}{group}/{topic}/{idx}")
}

/// `catalog/<table>`: a table's profile.
pub fn catalog(table: &str) -> String {
    format!("{CATALOG}{table}")
}

/// `meta/<table>/commit/`: the prefix of a table's cached commits.
pub fn meta_commits(table: &str) -> String {
    format!("{META}{table}/commit/")
}

/// A cached commit, its id zero-padded so commits scan in order.
pub fn meta_commit(table: &str, id: u64) -> String {
    format!("{META}{table}/commit/{id:016}")
}

/// `meta/<table>/snapshot/`: the prefix of a table's cached snapshots.
pub fn meta_snapshots(table: &str) -> String {
    format!("{META}{table}/snapshot/")
}

/// A cached snapshot, its id zero-padded so snapshots scan in order.
pub fn meta_snapshot(table: &str, id: u64) -> String {
    format!("{META}{table}/snapshot/{id:016}")
}

/// `live/<table>/`: the prefix of a table's live-file index.
pub fn live_table(table: &str) -> String {
    format!("{LIVE}{table}/")
}

/// `live/<table>/<partition>/<path>`: one live data file; with an empty
/// `path`, the prefix of one partition's files.
pub fn live_file(table: &str, partition: &str, path: &str) -> String {
    format!("{LIVE}{table}/{partition}/{path}")
}

/// `addr/<key or path>`: where a cache entry or data file is persisted.
/// Data-file paths start `data/` and cache keys `meta/`, so the two never
/// share an address key.
pub fn addr(of: &[u8]) -> Vec<u8> {
    [ADDR.as_bytes(), of].concat()
}

/// `s/<txn BE>/<object BE>`: `txn` produced into stream object `object`.
pub fn stream_participant(txn: u64, object: u64) -> Vec<u8> {
    [STREAM_PARTICIPANT.as_bytes(), &txn.to_be_bytes(), b"/", &object.to_be_bytes()].concat()
}

/// `lake/head/<table>`: a table's head snapshot.
pub fn lake_head(table: &str) -> Vec<u8> {
    format!("{LAKE_HEAD}{table}").into_bytes()
}

/// `lake/commit/<table>/<id>`: a table commit's body.
pub fn lake_commit(table: &str, id: u64) -> Vec<u8> {
    format!("{LAKE_COMMIT}{table}/{id:016}").into_bytes()
}

/// The table of a [`lake_commit`] key.
pub fn parse_lake_commit(key: &[u8]) -> Option<&str> {
    let rest = std::str::from_utf8(key.strip_prefix(LAKE_COMMIT.as_bytes())?).ok()?;
    Some(rest.rsplit_once('/')?.0)
}

/// `lake/live/<table>/<path>`: one data file's liveness.
pub fn lake_live(table: &str, path: &str) -> Vec<u8> {
    format!("{LAKE_LIVE}{table}/{path}").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix_free(families: &[&str]) {
        for (i, a) in families.iter().enumerate() {
            for (j, b) in families.iter().enumerate() {
                assert!(i == j || !b.starts_with(a), "{a} is a prefix of {b}");
            }
        }
    }

    #[test]
    fn families_are_prefix_free() {
        prefix_free(&STORE_FAMILIES);
        prefix_free(&MVCC_FAMILIES);
    }

    #[test]
    fn names_holding_a_separator_or_nothing_are_refused() {
        assert!(check_name("topic", "dpi_logs-1.x").is_ok());
        for bad in ["", "/", "a/b", "b/"] {
            assert!(matches!(check_name("group", bad), Err(Error::InvalidArgument(_))), "{bad:?}");
        }
    }

    #[test]
    fn keys_are_the_recorded_bytes() {
        assert_eq!(plog_index(1, 2), b"plog/\0\0\0\x01/\0\0\0\0\0\0\0\x02");
        assert_eq!(parse_plog_index(&plog_index(7, 1 << 40)), Some((7, 1 << 40)));
        assert!(plog_index(3, u64::MAX) < plog_shard_end(3));
        assert!(plog_shard_end(3) < plog_index(4, 0));
        assert_eq!(mvcc_version(b"k", 0), b"m/k\0\0\xff\xff\xff\xff\xff\xff\xff\xff");
        assert_eq!(parse_mvcc_version(&mvcc_version(b"a\0b", 42)), Some(42));
        assert_eq!(mvcc_intent(b"a\0"), b"i/a\0\xff\0\0");
        assert_eq!(parse_mvcc_record(&mvcc_record(9)), Some(9));
        assert_eq!(topic_route("t", 3), "topic/t/partition/00000003");
        assert_eq!(topic_config("t"), "topic/t/config");
        assert_eq!(group_offset("g", "t", 3), "group/g/t/3");
        assert_eq!(meta_commit("t", 5), "meta/t/commit/0000000000000005");
        assert_eq!(meta_snapshot("t", 5), "meta/t/snapshot/0000000000000005");
        let live = live_file("t", "p=1", "data/p=1/0000000001.lake");
        assert_eq!(live, "live/t/p=1/data/p=1/0000000001.lake");
        assert_eq!(addr(b"meta/t"), b"addr/meta/t");
        assert_eq!(stream_participant(1, 2), b"s/\0\0\0\0\0\0\0\x01/\0\0\0\0\0\0\0\x02");
        assert_eq!(lake_head("t"), b"lake/head/t");
        assert_eq!(parse_lake_commit(&lake_commit("t", 5)), Some("t"));
        assert_eq!(lake_live("t", "data/x"), b"lake/live/t/data/x");
    }
}

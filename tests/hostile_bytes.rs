//! Hostile bytes against every binary decoder.
//!
//! A mutation sweep damages a valid encoding of each record kind (one byte
//! flipped, the tail cut off, bytes appended) and crafted inputs carry the
//! values that used to abort or panic: a count of 2^40, a length of
//! `u64::MAX`, an unknown tag, trailing bytes. A decoder answers each with
//! an error, or with a value when a flip leaves a valid encoding; it never
//! panics, and never aborts on an allocation its input cannot back. Debug
//! builds turn an unchecked `offset + length` into a panic, release builds
//! wrap it silently, so the suite runs under both profiles.

use baselines::kafka::{KafkaMessage, MiniKafka};
use common::checksum::crc32;
use common::size::MIB;
use common::varint::{self, Reader};
use common::{IoCtx, Result, SimClock};
use format::encoding::{decode_chunk, encode_column};
use format::{
    compress, Column, ColumnStats, DataType, Expr, Field, LakeFileReader, LakeFileWriter, Schema,
    Value,
};
use kvstore::{SharedKv, WriteBatch};
use lake::{Catalog, Commit, DataFileMeta, PartitionSpec, Snapshot};
use plog::{PlogAddress, PlogConfig, PlogStore};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use simdisk::pool::StoragePool;
use simdisk::MediaKind;
use std::sync::Arc;
use stream::Record;

/// Decode all of `buf` with a decoder of a nested record; bytes left over
/// are an error.
fn whole<T>(buf: &[u8], decode: impl FnOnce(&mut Reader<'_>) -> Result<T>) -> Result<T> {
    let mut r = Reader::new(buf, "test input");
    let v = decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

fn varints(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in vals {
        varint::encode_u64(v, &mut out);
    }
    out
}

/// One way to damage a valid encoding.
#[derive(Debug, Clone)]
enum Mutation {
    /// XOR the byte at `at % len` with a non-zero mask.
    Flip { at: usize, mask: u8 },
    /// Keep only the first `keep % len` bytes.
    Truncate { keep: usize },
    /// Append bytes.
    Extend(Vec<u8>),
}

impl Mutation {
    fn apply(&self, valid: &[u8]) -> Vec<u8> {
        let mut out = valid.to_vec();
        match self {
            Mutation::Flip { at, mask } => out[at % valid.len()] ^= mask,
            Mutation::Truncate { keep } => out.truncate(keep % valid.len()),
            Mutation::Extend(tail) => out.extend_from_slice(tail),
        }
        out
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        any::<usize>().prop_map(|keep| Mutation::Truncate { keep }),
        collection::vec(any::<u8>(), 1..16).prop_map(Mutation::Extend),
    ]
}

/// A decoder under test, fed whole buffers.
type Decode = Box<dyn Fn(&[u8]) -> Result<()>>;

/// A decoder under test and a valid encoding for it.
struct Target {
    name: &'static str,
    valid: Vec<u8>,
    decode: Decode,
}

impl Target {
    fn new<T>(
        name: &'static str,
        valid: Vec<u8>,
        decode: impl Fn(&[u8]) -> Result<T> + 'static,
    ) -> Self {
        Target { name, valid, decode: Box::new(move |b| decode(b).map(drop)) }
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("ts", DataType::Int64),
        Field::new("province", DataType::Utf8),
        Field::new("bytes", DataType::Float64),
        Field::new("https", DataType::Bool),
    ])
    .unwrap()
}

fn rows(n: i64) -> Vec<Vec<Value>> {
    let provinces = ["beijing", "guangdong", "shanghai"];
    (0..n)
        .map(|i| {
            vec![
                Value::Int(1_656_806_400 + i * 7),
                Value::from(provinces[i as usize % 3]),
                Value::Float(i as f64 * 1.5),
                Value::Bool(i % 3 == 0),
            ]
        })
        .collect()
}

fn file_meta() -> DataFileMeta {
    DataFileMeta {
        path: "data/hour=12/00001.lake".into(),
        partition: "hour=12".into(),
        record_count: 1000,
        bytes: 4096,
        stats: vec![
            ColumnStats::from_column(&Column::Int(vec![1, 100])).unwrap(),
            ColumnStats::from_column(&Column::Str(vec!["a", "z"])).unwrap(),
        ],
    }
}

fn commit() -> Commit {
    Commit { id: 7, timestamp: 123_456, added: vec![file_meta()], removed: vec!["old.lake".into()] }
}

fn records() -> Vec<Record> {
    let mut txn = Record::new(b"k2".to_vec(), b"txn value".to_vec(), -5);
    txn.txn = Some(99);
    txn.producer_seq = Some((5, 12_345));
    vec![Record::new(b"k1".to_vec(), b"hello".to_vec(), 1_656_806_400_000), txn]
}

fn write_batch() -> WriteBatch {
    let mut b = WriteBatch::new();
    b.put(b"key".to_vec(), b"value".to_vec()).delete(b"gone".to_vec());
    b
}

fn plog_store() -> PlogStore {
    let pool = Arc::new(StoragePool::new("p", MediaKind::NvmeSsd, 4, 64 * MIB, SimClock::new()));
    let config = PlogConfig {
        shard_count: 4,
        redundancy: ec::Redundancy::Replicate { copies: 3 },
        shard_capacity: 8 * MIB,
    };
    PlogStore::new(pool, config).unwrap()
}

/// Every decoder that reads one buffer, with a valid encoding of it.
fn targets() -> Vec<Target> {
    let mut t = Vec::new();
    let recs = records();
    t.push(Target::new("Record::decode_slice", Record::encode_slice(&recs), Record::decode_slice));
    let mut one = Vec::new();
    recs[1].encode(&mut one);
    t.push(Target::new("Record::decode", one, |b| whole(b, Record::decode)));
    t.push(Target::new("WriteBatch::decode", write_batch().encode(), WriteBatch::decode));
    let mut meta = Vec::new();
    file_meta().encode(&mut meta);
    t.push(Target::new("DataFileMeta::decode_entry", meta, DataFileMeta::decode_entry));
    t.push(Target::new("Commit::decode", commit().encode(), Commit::decode));
    let snapshot = Snapshot { id: 300, base: 200, timestamp: 1 << 40 };
    t.push(Target::new("Snapshot::decode", snapshot.encode(), Snapshot::decode));
    let mut sch = Vec::new();
    schema().encode(&mut sch);
    t.push(Target::new("Schema::decode", sch, |b| whole(b, Schema::decode)));
    for v in [Value::Int(-3), Value::Float(2.5), Value::from("guangdong"), Value::Bool(true)] {
        let mut enc = Vec::new();
        v.encode(&mut enc);
        t.push(Target::new("Value::decode", enc, |b| whole(b, Value::decode)));
    }
    let mut stats = Vec::new();
    file_meta().stats[1].encode(&mut stats);
    t.push(Target::new("ColumnStats::decode", stats, |b| whole(b, ColumnStats::decode)));
    let text = b"provinces: beijing beijing guangdong beijing shanghai beijing".repeat(4);
    t.push(Target::new("compress::decompress", compress::compress(&text), compress::decompress));
    let provinces = ["beijing", "guangdong", "shanghai"];
    for col in [
        Column::Int((0..40).map(|i| 1_656_806_400 + i).collect()),
        Column::Int(vec![i64::MIN, 7, i64::MAX]),
        Column::Float(vec![1.5, -0.0, 3.25]),
        Column::Str((0..40).map(|i| provinces[i % 3]).collect()),
        Column::Str(vec!["a", "bb", ""]),
        Column::Bool((0..19).map(|i| i % 3 == 0).collect()),
    ] {
        let mut enc = Vec::new();
        let (encoding, dtype, rows) = (encode_column(&col, &mut enc), col.dtype(), col.len());
        t.push(Target::new("decode_chunk", enc, move |b| decode_chunk(encoding, dtype, b, rows)));
    }
    let image = LakeFileWriter::new(schema(), 16).unwrap().encode(&rows(40)).unwrap();
    t.push(Target::new("LakeFileReader", image, |b| {
        LakeFileReader::open(b.to_vec())?.scan(&Expr::True, None)
    }));
    let addr = PlogAddress { shard: 4095, offset: 1 << 40, len: 300 };
    t.push(Target::new("PlogAddress::decode", addr.encode(), PlogAddress::decode));

    // The catalog decodes its entry on every lookup.
    let kv = SharedKv::new();
    let catalog = Catalog::new(kv.clone());
    for (name, part) in [("plain", None), ("hourly", Some(PartitionSpec::hourly("ts")))] {
        catalog.create(name, schema(), part, 5000, 7).unwrap();
        let entry = kv.get(format!("catalog/{name}").as_bytes()).unwrap();
        let (kv, catalog) = (kv.clone(), Catalog::new(kv.clone()));
        t.push(Target::new("TableProfile::decode", entry, move |b| {
            kv.put("catalog/t", b.to_vec());
            catalog.get_any("t")
        }));
    }

    // A PLog index entry is decoded by every read and address listing.
    let store = plog_store();
    let (addr, _) = store.append_to_shard_at(1, b"hostile bytes".to_vec(), &IoCtx::new(0)).unwrap();
    let (key, entry) = store.kv().scan_prefix(b"plog/").pop().unwrap();
    t.push(Target::new("plog index entry", entry, move |b| {
        store.kv().put(key.clone(), b.to_vec());
        store.addresses();
        store.read_at(&addr, &IoCtx::new(0))
    }));
    t
}

#[test]
fn valid_encodings_decode() {
    for t in targets() {
        assert!((t.decode)(&t.valid).is_ok(), "{}", t.name);
    }
}

#[test]
fn mutated_encodings_are_refused_or_decoded_never_panic() {
    let targets = targets();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(4096));
    runner
        .run(&mutation(), |m| {
            for t in &targets {
                let out = (t.decode)(&m.apply(&t.valid));
                // A cut or a tail never leaves a valid encoding of these
                // self-delimiting records; a flip may.
                let may_decode = matches!(m, Mutation::Flip { .. });
                prop_assert!(may_decode || out.is_err(), "{} decoded {m:?}", t.name);
            }
            Ok(())
        })
        .unwrap();
}

/// A lake file image around `footer`, with the footer's true CRC.
fn lake_file(footer: &[u8]) -> Vec<u8> {
    let mut out = b"SLKF1".to_vec();
    out.extend_from_slice(footer);
    out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(footer).to_le_bytes());
    out.extend_from_slice(b"SLKF1");
    out
}

#[test]
fn crafted_counts_lengths_tags_and_tails_are_refused() {
    let huge = 1u64 << 40;
    let mut cases: Vec<(&str, Result<()>)> = Vec::new();
    let mut case = |name, out: Result<()>| cases.push((name, out));

    // Counts no remaining bytes could back.
    case("record slice of 2^40", Record::decode_slice(&varints(&[huge, 0, 0, 0, 0])).map(drop));
    case("batch of 2^40 ops", WriteBatch::decode(&varints(&[huge, 1, 0])).map(drop));
    case("commit adding 2^40 files", Commit::decode(&varints(&[1, 1, huge, 0, 0])).map(drop));
    let mut meta = varints(&[1, b'p' as u64, 0, 1, 1, huge]);
    meta.extend_from_slice(&[0, 0]);
    case("file meta with 2^40 stats", DataFileMeta::decode_entry(&meta).map(drop));
    case("schema of 2^40 fields", whole(&varints(&[huge, 0, 0]), Schema::decode).map(drop));
    let mut footer = varints(&[1, 1]);
    footer.extend_from_slice(b"a\0");
    footer.extend_from_slice(&varints(&[huge]));
    case("lake file of 2^40 row groups", LakeFileReader::open(lake_file(&footer)).map(drop));

    // Lengths of u64::MAX, where `offset + length` overflows.
    let max = u64::MAX;
    case("batch key of u64::MAX", WriteBatch::decode(&varints(&[1, 0, max, 0])).map(drop));
    case("file path of u64::MAX", DataFileMeta::decode_entry(&varints(&[max, 0])).map(drop));
    case(
        "string value of u64::MAX",
        whole(&[&[2u8][..], &varints(&[max])].concat(), Value::decode).map(drop),
    );
    case("record key of u64::MAX", Record::decode_slice(&varints(&[1, 0, 0, max, 0])).map(drop));
    case("field name of u64::MAX", whole(&varints(&[1, max, 0]), Schema::decode).map(drop));
    case("literal run of u64::MAX", compress::decompress(&varints(&[3, 0, max])).map(drop));

    // Catalog entries: a string of u64::MAX, unknown tags, a truncated
    // entry and a trailing byte.
    let kv = SharedKv::new();
    let catalog = Catalog::new(kv.clone());
    catalog.create("t", schema(), Some(PartitionSpec::hourly("ts")), 5000, 7).unwrap();
    let valid = kv.get(b"catalog/t").unwrap();
    let mut get = |name, bytes: Vec<u8>| {
        kv.put("catalog/t", bytes);
        cases.push((name, catalog.get_any("t").map(drop)));
    };
    get("catalog name of u64::MAX", varints(&[1, max, 0]));
    // The partition block: presence tag, column "ts", transform tag, width.
    let part = valid.windows(4).position(|w| w == [1, 2, b't', b's']).unwrap();
    let mut tag = valid.clone();
    tag[part + 4] = 7;
    get("unknown partition transform", tag);
    let mut presence = valid.clone();
    presence[part] = 2;
    get("unknown partition presence", presence);
    get("catalog entry cut before its partition", valid[..part].to_vec());
    get("catalog entry with a trailing byte", [&valid[..], &[0]].concat());

    // Trailing bytes after an address, and in a lake file footer whose CRC
    // covers them.
    let mut addr = PlogAddress { shard: 1, offset: 2, len: 3 }.encode();
    addr.push(0);
    cases.push(("address with a trailing byte", PlogAddress::decode(&addr).map(drop)));
    let wide = varints(&[(1 << 32) + 1, 0, 1]);
    cases.push(("address shard past u32", PlogAddress::decode(&wide).map(drop)));
    let mut footer = Vec::new();
    schema().encode(&mut footer);
    footer.extend_from_slice(&[0, 0]);
    cases.push(("footer with a trailing byte", LakeFileReader::open(lake_file(&footer)).map(drop)));

    // A PLog index entry naming 2^40 shards.
    let store = plog_store();
    let (addr, _) = store.append_to_shard_at(1, b"x".to_vec(), &IoCtx::new(0)).unwrap();
    let (key, _) = store.kv().scan_prefix(b"plog/").pop().unwrap();
    store.kv().put(key, varints(&[1, 9, huge, 0, 0]));
    cases.push(("plog entry of 2^40 shards", store.read_at(&addr, &IoCtx::new(0)).map(drop)));

    for (name, out) in cases {
        assert!(out.is_err(), "{name} decoded");
    }
}

/// A one-broker, one-replica Kafka holding one flushed segment.
fn kafka() -> (MiniKafka, Arc<StoragePool>) {
    let pool = Arc::new(StoragePool::new("k", MediaKind::NvmeSsd, 1, 64 * MIB, SimClock::new()));
    let k = MiniKafka::new(pool.clone(), 1, 1 << 20);
    k.create_topic("t", 1).unwrap();
    for i in 0..3u8 {
        k.produce("t", KafkaMessage { key: vec![i], value: vec![b'v'; 20] }, 0).unwrap();
    }
    k.flush(0).unwrap();
    (k, pool)
}

#[test]
fn kafka_segments_with_a_flipped_byte_are_refused_or_read() {
    // The count's top byte: billions of messages in a 79-byte segment.
    let (k, pool) = kafka();
    pool.device(0).corrupt_stored_byte(0, 3, 0xFF).unwrap();
    assert!(k.fetch("t", 0, 0, usize::MAX, 0).is_err());

    let mut runner = TestRunner::new(ProptestConfig::with_cases(256));
    runner
        .run(&(any::<u64>(), 1u8..=255), |(at, mask)| {
            let (k, pool) = kafka();
            pool.device(0).corrupt_stored_byte(0, at, mask).unwrap();
            let _ = k.fetch("t", 0, 0, usize::MAX, 0);
            Ok(())
        })
        .unwrap();
}

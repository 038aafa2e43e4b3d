//! Message records.
//!
//! A record is a key-value pair with a producer timestamp and optional
//! transactional/idempotence metadata. Records serialize to a compact wire
//! form for PLog persistence; a slice of up to 256 records is the unit the
//! stream object writes (§IV-A, Fig 4).

use common::varint::{self, Reader};
use common::Result;

/// A key-value message record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Partitioning/message key (may be empty).
    pub key: Vec<u8>,
    /// Message payload.
    pub value: Vec<u8>,
    /// Producer-assigned timestamp (epoch milliseconds).
    pub(crate) timestamp: i64,
    /// Transaction id, when produced transactionally.
    pub txn: Option<u64>,
    /// `(producer_id, sequence)` for idempotent dedup, when present.
    pub producer_seq: Option<(u64, u64)>,
}

impl Record {
    /// A plain (non-transactional) record.
    pub fn new(key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>, timestamp: i64) -> Self {
        Record {
            key: key.into(),
            value: value.into(),
            timestamp,
            txn: None,
            producer_seq: None,
        }
    }

    /// Approximate in-memory size, used for quota and batch accounting.
    pub(crate) fn size_bytes(&self) -> usize {
        self.key.len() + self.value.len() + 24
    }

    /// Serialize into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut flags = 0u8;
        if self.txn.is_some() {
            flags |= 1;
        }
        if self.producer_seq.is_some() {
            flags |= 2;
        }
        out.push(flags);
        varint::encode_i64(self.timestamp, out);
        if let Some(t) = self.txn {
            varint::encode_u64(t, out);
        }
        if let Some((pid, seq)) = self.producer_seq {
            varint::encode_u64(pid, out);
            varint::encode_u64(seq, out);
        }
        varint::encode_u64(self.key.len() as u64, out);
        out.extend_from_slice(&self.key);
        varint::encode_u64(self.value.len() as u64, out);
        out.extend_from_slice(&self.value);
    }

    /// Decode one record.
    pub fn decode(r: &mut Reader<'_>) -> Result<Record> {
        let flags = r.u8()?;
        let timestamp = r.i64()?;
        let txn = if flags & 1 != 0 { Some(r.u64()?) } else { None };
        let producer_seq = if flags & 2 != 0 { Some((r.u64()?, r.u64()?)) } else { None };
        let key = r.len_prefixed()?.to_vec();
        let value = r.len_prefixed()?.to_vec();
        Ok(Record { key, value, timestamp, txn, producer_seq })
    }

    /// Serialize a slice of records (the PLog persistence unit).
    pub fn encode_slice(records: &[Record]) -> Vec<u8> {
        let mut out = Vec::with_capacity(records.iter().map(|r| r.size_bytes()).sum());
        varint::encode_u64(records.len() as u64, &mut out);
        for r in records {
            r.encode(&mut out);
        }
        out
    }

    /// Decode a slice produced by [`encode_slice`](Self::encode_slice).
    pub fn decode_slice(buf: &[u8]) -> Result<Vec<Record>> {
        let mut r = Reader::new(buf, "record slice");
        // The shortest record is its flags, a timestamp and two lengths.
        let count = r.count(4)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(Record::decode(&mut r)?);
        }
        r.finish()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn plain_record_roundtrip() {
        let r = Record::new(b"k1".to_vec(), b"hello world".to_vec(), 1_656_806_400_000);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let mut rd = Reader::new(&buf, "record");
        assert_eq!(Record::decode(&mut rd).unwrap(), r);
        assert!(rd.finish().is_ok());
    }

    #[test]
    fn transactional_metadata_roundtrips() {
        let mut r = Record::new(b"k".to_vec(), b"v".to_vec(), 7);
        r.txn = Some(99);
        r.producer_seq = Some((5, 12345));
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(Record::decode(&mut Reader::new(&buf, "record")).unwrap(), r);
    }

    #[test]
    fn slice_roundtrip_and_trailing_garbage() {
        let records: Vec<Record> = (0..10)
            .map(|i| Record::new(format!("k{i}").into_bytes(), vec![i as u8; 100], i))
            .collect();
        let enc = Record::encode_slice(&records);
        assert_eq!(Record::decode_slice(&enc).unwrap(), records);
        let mut bad = enc.clone();
        bad.push(0);
        assert!(Record::decode_slice(&bad).is_err());
    }

    #[test]
    fn truncation_is_corruption() {
        let r = Record::new(b"key".to_vec(), b"value".to_vec(), 1);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(Record::decode(&mut Reader::new(&buf[..cut], "record")).is_err(), "cut={cut}");
        }
    }

    proptest! {
        #[test]
        fn arbitrary_roundtrip(
            key in proptest::collection::vec(any::<u8>(), 0..64),
            value in proptest::collection::vec(any::<u8>(), 0..256),
            ts in any::<i64>(),
            txn in proptest::option::of(any::<u64>()),
            pseq in proptest::option::of((any::<u64>(), any::<u64>())),
        ) {
            let r = Record { key, value, timestamp: ts, txn, producer_seq: pseq };
            let mut buf = Vec::new();
            r.encode(&mut buf);
            let mut rd = Reader::new(&buf, "record");
            prop_assert_eq!(Record::decode(&mut rd).unwrap(), r);
            prop_assert!(rd.finish().is_ok());
        }

        #[test]
        fn slice_roundtrip_arbitrary(n in 0usize..64, seed in any::<u8>()) {
            let records: Vec<Record> = (0..n)
                .map(|i| Record::new(vec![seed, i as u8], vec![i as u8; i % 32], i as i64))
                .collect();
            prop_assert_eq!(
                Record::decode_slice(&Record::encode_slice(&records)).unwrap(),
                records
            );
        }
    }
}

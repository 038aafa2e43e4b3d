//! Atomic write batches.
//!
//! A [`WriteBatch`] groups puts and deletes that must become visible
//! together; the WAL persists a batch as one framed record, so recovery
//! either replays all of its operations or none (a torn tail drops the whole
//! frame).

use common::varint::{self, Reader};
use common::{Error, Result};

/// One operation inside a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert or overwrite `key` with `value`.
    Put {
        /// The key to write.
        key: Vec<u8>,
        /// The value to store.
        value: Vec<u8>,
    },
    /// Remove `key` if present.
    Delete {
        /// The key to remove.
        key: Vec<u8>,
    },
}

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;

/// An ordered group of operations applied atomically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    ops: Vec<Op>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a put.
    pub fn put(&mut self, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push(Op::Put { key: key.into(), value: value.into() });
        self
    }

    /// Queue a delete.
    pub fn delete(&mut self, key: impl Into<Vec<u8>>) -> &mut Self {
        self.ops.push(Op::Delete { key: key.into() });
        self
    }

    /// Operations in insertion order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Serialize to the WAL payload format:
    /// `count`, then per op: `tag`, `klen`, `key`, (`vlen`, `value` for puts).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.ops.len() * 16);
        varint::encode_u64(self.ops.len() as u64, &mut out);
        for op in &self.ops {
            match op {
                Op::Put { key, value } => {
                    out.push(OP_PUT);
                    varint::encode_u64(key.len() as u64, &mut out);
                    out.extend_from_slice(key);
                    varint::encode_u64(value.len() as u64, &mut out);
                    out.extend_from_slice(value);
                }
                Op::Delete { key } => {
                    out.push(OP_DELETE);
                    varint::encode_u64(key.len() as u64, &mut out);
                    out.extend_from_slice(key);
                }
            }
        }
        out
    }

    /// Decode a payload produced by [`encode`](Self::encode).
    pub fn decode(buf: &[u8]) -> Result<WriteBatch> {
        let mut r = Reader::new(buf, "write batch");
        // The shortest op is a delete of the empty key: a tag and a length.
        let count = r.count(2)?;
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = r.u8()?;
            let key = r.len_prefixed()?.to_vec();
            match tag {
                OP_PUT => ops.push(Op::Put { key, value: r.len_prefixed()?.to_vec() }),
                OP_DELETE => ops.push(Op::Delete { key }),
                other => {
                    return Err(Error::Corruption(format!("unknown batch op tag {other}")));
                }
            }
        }
        r.finish()?;
        Ok(WriteBatch { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builder_preserves_order() {
        let mut b = WriteBatch::new();
        b.put(b"a".to_vec(), b"1".to_vec()).delete(b"b".to_vec()).put(b"c".to_vec(), b"3".to_vec());
        assert_eq!(b.len(), 3);
        assert!(matches!(&b.ops()[1], Op::Delete { key } if key == b"b"));
    }

    #[test]
    fn empty_batch_roundtrips() {
        let b = WriteBatch::new();
        assert!(b.is_empty());
        assert_eq!(WriteBatch::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn truncated_payload_is_corruption() {
        let mut b = WriteBatch::new();
        b.put(b"key".to_vec(), b"value".to_vec());
        let enc = b.encode();
        for cut in 1..enc.len() {
            assert!(
                WriteBatch::decode(&enc[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut enc = Vec::new();
        common::varint::encode_u64(1, &mut enc);
        enc.push(99);
        common::varint::encode_u64(0, &mut enc);
        assert!(matches!(
            WriteBatch::decode(&enc),
            Err(common::Error::Corruption(_))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut b = WriteBatch::new();
        b.delete(b"k".to_vec());
        let mut enc = b.encode();
        enc.push(0);
        assert!(WriteBatch::decode(&enc).is_err());
    }

    fn arb_batch() -> impl Strategy<Value = WriteBatch> {
        proptest::collection::vec(
            prop_oneof![
                (
                    proptest::collection::vec(any::<u8>(), 0..32),
                    proptest::collection::vec(any::<u8>(), 0..64)
                )
                    .prop_map(|(key, value)| Op::Put { key, value }),
                proptest::collection::vec(any::<u8>(), 0..32)
                    .prop_map(|key| Op::Delete { key }),
            ],
            0..20,
        )
        .prop_map(|ops| WriteBatch { ops })
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(b in arb_batch()) {
            prop_assert_eq!(WriteBatch::decode(&b.encode()).unwrap(), b);
        }
    }
}

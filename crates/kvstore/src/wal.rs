//! The write-ahead log.
//!
//! Frame layout: `[len: u32 LE][crc32: u32 LE][payload: len bytes]`. The CRC
//! covers the payload only. Replay walks frames in order and stops at the
//! first truncated frame (a torn tail after a crash); a CRC mismatch on a
//! *complete* frame is real corruption and is reported as an error.

use common::checksum::crc32;
use common::{Error, Result};

/// An append-only, CRC-framed log held in memory.
///
/// Durability is simulated: the backing buffer can be exported with
/// [`bytes`](Wal::bytes) (e.g. to persist into a PLog) and replayed with
/// [`replay`](Wal::replay).
#[derive(Debug, Clone, Default)]
pub(crate) struct Wal {
    buf: Vec<u8>,
    records: u64,
}

impl Wal {
    /// Construct a log whose content is `bytes` (e.g. read back from disk).
    ///
    /// Validates framing eagerly; a torn tail is trimmed, a mid-log CRC
    /// failure is an error.
    pub(crate) fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let mut wal = Wal { buf: bytes, records: 0 };
        let (valid_len, records) = wal.scan()?;
        wal.buf.truncate(valid_len);
        wal.records = records;
        Ok(wal)
    }

    /// Append one payload as a frame.
    pub(crate) fn append(&mut self, payload: &[u8]) {
        let len = payload.len() as u32;
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.records += 1;
    }

    /// Raw log bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Log size in bytes.
    pub(crate) fn len_bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Number of appended (or replayed) records.
    pub(crate) fn record_count(&self) -> u64 {
        self.records
    }

    /// Iterate over all payloads in append order.
    pub(crate) fn replay(&self) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(self.records as usize);
        let mut off = 0usize;
        while off < self.buf.len() {
            match Self::read_frame(&self.buf, off)? {
                Some((payload, next)) => {
                    out.push(payload.to_vec());
                    off = next;
                }
                None => break, // torn tail
            }
        }
        Ok(out)
    }

    /// Replace the log content with a fresh sequence of payloads
    /// (compaction).
    pub(crate) fn reset_with(&mut self, payloads: &[Vec<u8>]) {
        self.buf.clear();
        self.records = 0;
        for p in payloads {
            self.append(p);
        }
    }

    /// Validate framing; returns (bytes of valid prefix, record count).
    fn scan(&self) -> Result<(usize, u64)> {
        let mut off = 0usize;
        let mut records = 0u64;
        while off < self.buf.len() {
            match Self::read_frame(&self.buf, off)? {
                Some((_, next)) => {
                    off = next;
                    records += 1;
                }
                None => break,
            }
        }
        Ok((off, records))
    }

    /// Read the frame at `off`. `Ok(None)` means a torn (incomplete) tail.
    fn read_frame(buf: &[u8], off: usize) -> Result<Option<(&[u8], usize)>> {
        if off + 8 > buf.len() {
            return Ok(None); // incomplete header
        }
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
        let expect_crc = u32::from_le_bytes(buf[off + 4..off + 8].try_into().unwrap());
        let start = off + 8;
        if start + len > buf.len() {
            return Ok(None); // incomplete payload: torn write
        }
        let payload = &buf[start..start + len];
        if crc32(payload) != expect_crc {
            return Err(Error::Corruption(format!("wal frame at offset {off}: crc mismatch")));
        }
        Ok(Some((payload, start + len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn append_and_replay() {
        let mut w = Wal::default();
        w.append(b"one");
        w.append(b"two");
        assert_eq!(w.record_count(), 2);
        assert_eq!(w.replay().unwrap(), vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn torn_tail_is_trimmed_on_recovery() {
        let mut w = Wal::default();
        w.append(b"complete");
        w.append(b"will be torn");
        let mut bytes = w.bytes().to_vec();
        bytes.truncate(bytes.len() - 3); // tear the last frame
        let recovered = Wal::from_bytes(bytes).unwrap();
        assert_eq!(recovered.record_count(), 1);
        assert_eq!(recovered.replay().unwrap(), vec![b"complete".to_vec()]);
    }

    #[test]
    fn mid_log_bitflip_is_corruption() {
        let mut w = Wal::default();
        w.append(b"aaaaaaaa");
        w.append(b"bbbbbbbb");
        let mut bytes = w.bytes().to_vec();
        bytes[10] ^= 0xFF; // flip inside the first payload
        assert!(matches!(Wal::from_bytes(bytes), Err(Error::Corruption(_))));
    }

    #[test]
    fn reset_with_compacts() {
        let mut w = Wal::default();
        for i in 0..100u32 {
            w.append(&i.to_le_bytes());
        }
        let before = w.len_bytes();
        w.reset_with(&[b"only".to_vec()]);
        assert!(w.len_bytes() < before);
        assert_eq!(w.replay().unwrap(), vec![b"only".to_vec()]);
    }

    #[test]
    fn empty_payloads_are_legal() {
        let mut w = Wal::default();
        w.append(b"");
        w.append(b"");
        assert_eq!(w.replay().unwrap(), vec![Vec::<u8>::new(); 2]);
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_payloads(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 0..32)
        ) {
            let mut w = Wal::default();
            for p in &payloads {
                w.append(p);
            }
            prop_assert_eq!(w.replay().unwrap(), payloads.clone());
            // and recovery from raw bytes agrees
            let r = Wal::from_bytes(w.bytes().to_vec()).unwrap();
            prop_assert_eq!(r.replay().unwrap(), payloads);
        }

        #[test]
        fn truncation_never_panics_and_keeps_prefix(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..16),
            cut_fraction in 0.0f64..1.0,
        ) {
            let mut w = Wal::default();
            for p in &payloads {
                w.append(p);
            }
            let cut = (w.len_bytes() as f64 * cut_fraction) as usize;
            let bytes = w.bytes()[..cut].to_vec();
            if let Ok(r) = Wal::from_bytes(bytes) {
                let replayed = r.replay().unwrap();
                prop_assert!(replayed.len() <= payloads.len());
                prop_assert_eq!(&payloads[..replayed.len()], &replayed[..]);
            }
        }
    }
}

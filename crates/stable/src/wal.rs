//! Redo-only write-ahead log with checksummed records.
//!
//! The WAL is the durability half of the paper's "stable storage and
//! automatic recovery upon system failures" (§3.2). Persistent OFMs log
//! logical redo records (tuple images) before acknowledging a commit; the
//! transaction manager logs 2PC decisions. Records are framed as
//! `len:u32 | crc:u64 | payload` so recovery can detect and discard a torn
//! final record.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use prisma_types::{FragmentId, PrismaError, Result, Tuple, TxnId};
use std::sync::Arc;

use crate::device::StableDevice;
use crate::encoding::{checksum, decode_tuple, encode_tuple};

/// Log sequence number: byte offset of a record in the log.
pub type Lsn = u64;

/// What a log record says happened.
#[derive(Debug, Clone, PartialEq)]
pub enum LogPayload {
    /// Transaction started.
    Begin { txn: TxnId },
    /// Tuple inserted into a fragment (redo image).
    Insert { txn: TxnId, fragment: FragmentId, tuple: Tuple },
    /// Tuple deleted from a fragment (the deleted image, so recovery can
    /// re-delete by value).
    Delete { txn: TxnId, fragment: FragmentId, tuple: Tuple },
    /// Transaction committed (the commit point once durable).
    Commit { txn: TxnId },
    /// Transaction aborted.
    Abort { txn: TxnId },
    /// 2PC participant voted yes and is prepared.
    Prepared { txn: TxnId },
    /// Checkpoint taken for a fragment at this point in the log; recovery
    /// may start redo after the *latest* checkpoint of each fragment.
    Checkpoint { fragment: FragmentId },
}

/// A decoded record plus its position.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Byte offset of the record frame in the log.
    pub lsn: Lsn,
    /// The payload.
    pub payload: LogPayload,
}

fn encode_payload(p: &LogPayload, out: &mut BytesMut) {
    match p {
        LogPayload::Begin { txn } => {
            out.put_u8(0);
            out.put_u32_le(txn.0);
        }
        LogPayload::Insert { txn, fragment, tuple } => {
            out.put_u8(1);
            out.put_u32_le(txn.0);
            out.put_u32_le(fragment.0);
            encode_tuple(tuple, out);
        }
        LogPayload::Delete { txn, fragment, tuple } => {
            out.put_u8(2);
            out.put_u32_le(txn.0);
            out.put_u32_le(fragment.0);
            encode_tuple(tuple, out);
        }
        LogPayload::Commit { txn } => {
            out.put_u8(3);
            out.put_u32_le(txn.0);
        }
        LogPayload::Abort { txn } => {
            out.put_u8(4);
            out.put_u32_le(txn.0);
        }
        LogPayload::Prepared { txn } => {
            out.put_u8(5);
            out.put_u32_le(txn.0);
        }
        LogPayload::Checkpoint { fragment } => {
            out.put_u8(6);
            out.put_u32_le(fragment.0);
        }
    }
}

fn decode_payload(buf: &mut Bytes) -> Result<LogPayload> {
    let corrupt = |m: &str| PrismaError::CorruptLog(m.to_owned());
    if buf.remaining() < 1 {
        return Err(corrupt("empty payload"));
    }
    let tag = buf.get_u8();
    let txn_id = |buf: &mut Bytes| -> Result<TxnId> {
        if buf.remaining() < 4 {
            return Err(corrupt("truncated txn id"));
        }
        Ok(TxnId(buf.get_u32_le()))
    };
    match tag {
        0 => Ok(LogPayload::Begin { txn: txn_id(buf)? }),
        1 | 2 => {
            let txn = txn_id(buf)?;
            if buf.remaining() < 4 {
                return Err(corrupt("truncated fragment id"));
            }
            let fragment = FragmentId(buf.get_u32_le());
            let tuple = decode_tuple(buf)?;
            Ok(if tag == 1 {
                LogPayload::Insert { txn, fragment, tuple }
            } else {
                LogPayload::Delete { txn, fragment, tuple }
            })
        }
        3 => Ok(LogPayload::Commit { txn: txn_id(buf)? }),
        4 => Ok(LogPayload::Abort { txn: txn_id(buf)? }),
        5 => Ok(LogPayload::Prepared { txn: txn_id(buf)? }),
        6 => {
            if buf.remaining() < 4 {
                return Err(corrupt("truncated fragment id"));
            }
            Ok(LogPayload::Checkpoint {
                fragment: FragmentId(buf.get_u32_le()),
            })
        }
        t => Err(corrupt(&format!("unknown log tag {t}"))),
    }
}

/// The write-ahead log over a [`StableDevice`].
///
/// Thread-safe: the device serializes appends internally; LSNs are the
/// device byte offsets, maintained here.
pub struct WriteAheadLog {
    device: Arc<dyn StableDevice>,
    next_lsn: parking_lot::Mutex<Lsn>,
}

impl WriteAheadLog {
    /// A WAL writing to `device`. If the device already holds a log (e.g.
    /// after recovery), the next LSN continues from its durable end.
    pub fn new(device: Arc<dyn StableDevice>) -> Self {
        let start = device.durable_bytes().len() as Lsn;
        WriteAheadLog {
            device,
            next_lsn: parking_lot::Mutex::new(start),
        }
    }

    /// The underlying device (shared with checkpoints and tests).
    pub fn device(&self) -> &Arc<dyn StableDevice> {
        &self.device
    }

    /// Append a record. The record is *buffered*; call [`Self::sync`] (or
    /// append with [`Self::append_durable`]) to make it survive a crash.
    pub fn append(&self, payload: &LogPayload) -> Lsn {
        let mut body = BytesMut::new();
        encode_payload(payload, &mut body);
        let mut frame = BytesMut::with_capacity(body.len() + 12);
        frame.put_u32_le(body.len() as u32);
        frame.put_u64_le(checksum(&body));
        frame.extend_from_slice(&body);
        let mut lsn = self.next_lsn.lock();
        let at = *lsn;
        *lsn += frame.len() as Lsn;
        self.device.append(&frame);
        at
    }

    /// Append and immediately force to stable storage. Returns `(lsn,
    /// simulated_ns)` — the commit-latency cost of a forced write.
    pub fn append_durable(&self, payload: &LogPayload) -> (Lsn, u64) {
        let lsn = self.append(payload);
        let ns = self.device.sync();
        (lsn, ns)
    }

    /// Durability barrier.
    pub fn sync(&self) -> u64 {
        self.device.sync()
    }

    /// Read back every intact record in the durable log; a torn or corrupt
    /// tail terminates the scan silently (standard WAL recovery contract:
    /// the tail was never acknowledged, so discarding it is correct).
    pub fn read_durable(&self) -> Vec<LogRecord> {
        Self::decode_log(&self.device.durable_bytes())
    }

    /// Decode a raw log image (exposed for recovery-from-copied-devices).
    pub fn decode_log(bytes: &[u8]) -> Vec<LogRecord> {
        let mut records = Vec::new();
        let mut offset = 0usize;
        while bytes.len() - offset >= 12 {
            let len =
                u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
            let crc = u64::from_le_bytes(bytes[offset + 4..offset + 12].try_into().expect("8"));
            let body_start = offset + 12;
            if bytes.len() < body_start + len {
                break; // torn frame
            }
            let body = &bytes[body_start..body_start + len];
            if checksum(body) != crc {
                break; // torn/corrupt record
            }
            let mut buf = Bytes::copy_from_slice(body);
            match decode_payload(&mut buf) {
                Ok(payload) => records.push(LogRecord {
                    lsn: offset as Lsn,
                    payload,
                }),
                Err(_) => break,
            }
            offset = body_start + len;
        }
        records
    }

    /// The set of transactions with a durable `Commit` record — the redo
    /// set for recovery.
    pub fn committed_txns(records: &[LogRecord]) -> std::collections::HashSet<TxnId> {
        records
            .iter()
            .filter_map(|r| match r.payload {
                LogPayload::Commit { txn } => Some(txn),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DiskProfile, SimulatedDisk};
    use prisma_types::tuple;

    fn wal() -> WriteAheadLog {
        WriteAheadLog::new(Arc::new(SimulatedDisk::new(DiskProfile::instant())))
    }

    #[test]
    fn append_read_roundtrip() {
        let w = wal();
        let t = TxnId(1);
        let f = FragmentId(2);
        w.append(&LogPayload::Begin { txn: t });
        w.append(&LogPayload::Insert {
            txn: t,
            fragment: f,
            tuple: tuple![1, "x"],
        });
        w.append(&LogPayload::Commit { txn: t });
        w.sync();
        let recs = w.read_durable();
        assert_eq!(recs.len(), 3);
        assert!(matches!(recs[2].payload, LogPayload::Commit { txn } if txn == t));
        assert!(WriteAheadLog::committed_txns(&recs).contains(&t));
    }

    #[test]
    fn unsynced_records_do_not_survive_crash() {
        let w = wal();
        w.append(&LogPayload::Begin { txn: TxnId(1) });
        w.sync();
        w.append(&LogPayload::Commit { txn: TxnId(1) });
        // no sync
        w.device().crash(None);
        let recs = w.read_durable();
        assert_eq!(recs.len(), 1);
        assert!(WriteAheadLog::committed_txns(&recs).is_empty());
    }

    #[test]
    fn torn_final_record_is_discarded() {
        let w = wal();
        w.append(&LogPayload::Begin { txn: TxnId(7) });
        w.sync();
        w.append(&LogPayload::Insert {
            txn: TxnId(7),
            fragment: FragmentId(0),
            tuple: tuple![1, 2, 3, "a long enough payload to tear"],
        });
        // Crash mid-write: only 5 bytes of the record frame hit the platter.
        w.device().crash(Some(5));
        let recs = w.read_durable();
        assert_eq!(recs.len(), 1, "torn record must not be returned");
    }

    #[test]
    fn torn_record_with_corrupt_body_is_discarded() {
        let w = wal();
        w.append(&LogPayload::Begin { txn: TxnId(7) });
        w.sync();
        let before = w.device().durable_bytes().len();
        w.append(&LogPayload::Commit { txn: TxnId(7) });
        // Tear inside the body: frame header complete, body half-written.
        let full = w.device().all_bytes().len();
        let tear = (full - before) - 2;
        w.device().crash(Some(tear));
        let recs = w.read_durable();
        assert_eq!(recs.len(), 1, "checksum must reject the half body");
    }

    #[test]
    fn tear_at_exact_frame_boundary_keeps_the_record() {
        let w = wal();
        w.append(&LogPayload::Begin { txn: TxnId(7) });
        w.sync();
        let before = w.device().durable_bytes().len();
        w.append(&LogPayload::Commit { txn: TxnId(7) });
        let frame = w.device().all_bytes().len() - before;
        // The crash lands exactly on the frame boundary: every byte of
        // the record made it, so recovery must keep it — the boundary
        // itself is not "torn" territory.
        w.device().crash(Some(frame));
        let recs = w.read_durable();
        assert_eq!(recs.len(), 2, "a fully-flushed frame survives");
        assert_eq!(recs[1].payload, LogPayload::Commit { txn: TxnId(7) });
    }

    #[test]
    fn tear_one_byte_into_a_frame_discards_it() {
        let w = wal();
        w.append(&LogPayload::Begin { txn: TxnId(7) });
        w.sync();
        w.append(&LogPayload::Commit { txn: TxnId(7) });
        // One byte of the length header survives: not even the frame
        // length is trustworthy, and recovery must stop cleanly at the
        // previous record instead of chasing garbage.
        w.device().crash(Some(1));
        let recs = w.read_durable();
        assert_eq!(recs.len(), 1, "a 1-byte frame prefix must be discarded");
        assert_eq!(recs[0].payload, LogPayload::Begin { txn: TxnId(7) });
    }

    #[test]
    fn lsns_are_monotone_byte_offsets() {
        let w = wal();
        let a = w.append(&LogPayload::Begin { txn: TxnId(1) });
        let b = w.append(&LogPayload::Abort { txn: TxnId(1) });
        assert_eq!(a, 0);
        assert!(b > a);
        w.sync();
        let recs = w.read_durable();
        assert_eq!(recs[0].lsn, a);
        assert_eq!(recs[1].lsn, b);
    }

    #[test]
    fn wal_resumes_lsn_after_reopen() {
        let dev: Arc<dyn StableDevice> = Arc::new(SimulatedDisk::new(DiskProfile::instant()));
        let w1 = WriteAheadLog::new(dev.clone());
        w1.append_durable(&LogPayload::Begin { txn: TxnId(1) });
        let end = dev.durable_bytes().len() as Lsn;
        let w2 = WriteAheadLog::new(dev.clone());
        let next = w2.append(&LogPayload::Commit { txn: TxnId(1) });
        assert_eq!(next, end);
        w2.sync();
        assert_eq!(w2.read_durable().len(), 2);
    }

    #[test]
    fn append_durable_charges_disk_time() {
        let dev = Arc::new(SimulatedDisk::default());
        let w = WriteAheadLog::new(dev);
        let (_, ns) = w.append_durable(&LogPayload::Begin { txn: TxnId(1) });
        assert!(ns >= 20_000_000, "must pay at least the seek: {ns}");
    }
}

//! Byte-addressed stable devices with crash semantics.

use parking_lot::Mutex;
use std::sync::Arc;

/// Latency model of a late-1980s Winchester disk of the class the PRISMA
/// prototype would have attached to its disk PEs.
#[derive(Debug, Clone, Copy)]
pub struct DiskProfile {
    /// Positioning cost charged per `sync` batch, nanoseconds.
    pub seek_ns: u64,
    /// Transfer cost per byte, nanoseconds (≈ 1 MB/s default).
    pub per_byte_ns: u64,
}

impl Default for DiskProfile {
    fn default() -> Self {
        // 20 ms average seek+rotation, ~1 MB/s sustained transfer: period
        // hardware, which is what makes main-memory execution attractive.
        DiskProfile {
            seek_ns: 20_000_000,
            per_byte_ns: 1_000,
        }
    }
}

impl DiskProfile {
    /// An aggressively fast device (for tests that don't care about time).
    pub fn instant() -> Self {
        DiskProfile {
            seek_ns: 0,
            per_byte_ns: 0,
        }
    }
}

/// An append-only stable byte store with explicit durability barriers.
///
/// Semantics: `append` buffers; `sync` makes everything appended so far
/// durable; `crash` discards the non-durable tail (a torn write may leave
/// a *prefix* of an unsynced append — the WAL detects this via record
/// checksums). `durable_bytes` reads back the durable prefix.
pub trait StableDevice: Send + Sync {
    /// Buffer `data` at the end of the device.
    fn append(&self, data: &[u8]);
    /// Durability barrier; everything appended before this call survives a
    /// crash. Returns the simulated time charged, in nanoseconds.
    fn sync(&self) -> u64;
    /// The durable content (what recovery will see after a crash).
    fn durable_bytes(&self) -> Vec<u8>;
    /// All content including the unsynced tail (what a reader sees while
    /// the system is up).
    fn all_bytes(&self) -> Vec<u8>;
    /// Simulate a crash: lose the unsynced tail. With `torn = Some(k)`,
    /// the first `k` bytes of the lost tail survive (a torn sector write).
    fn crash(&self, torn: Option<usize>);
    /// Total simulated time spent in this device, nanoseconds.
    fn simulated_ns(&self) -> u64;
    /// Bytes durably written over the device's lifetime.
    fn bytes_written(&self) -> u64;
    /// Number of sync barriers issued.
    fn sync_count(&self) -> u64;
    /// Discard all contents, durable and not (device re-format for tests).
    fn reset(&self);
}

/// Capacity of one durable segment.
const SEGMENT_BYTES: usize = 1 << 20;

#[derive(Debug, Default)]
struct DeviceState {
    /// The durable bytes in segments of [`SEGMENT_BYTES`] capacity, all
    /// full but the last. A log that outlives a run grows one segment at
    /// a time: one contiguous buffer would double, and a reallocation
    /// that copies leaves the old buffer resident, so the machine's
    /// resident set would jump by the log's whole size at a point set by
    /// how many commits happened to run.
    durable: Vec<Vec<u8>>,
    tail: Vec<u8>,
    simulated_ns: u64,
    bytes_written: u64,
    sync_count: u64,
}

impl DeviceState {
    fn make_durable(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            match self.durable.last_mut() {
                Some(seg) if seg.len() < SEGMENT_BYTES => {
                    let n = data.len().min(SEGMENT_BYTES - seg.len());
                    seg.extend_from_slice(&data[..n]);
                    data = &data[n..];
                }
                _ => self.durable.push(Vec::with_capacity(SEGMENT_BYTES)),
            }
        }
    }

    fn durable_bytes(&self) -> Vec<u8> {
        self.durable.concat()
    }
}

/// The simulated disk: in-memory bytes plus the [`DiskProfile`] cost model.
#[derive(Debug, Clone)]
pub struct SimulatedDisk {
    profile: DiskProfile,
    state: Arc<Mutex<DeviceState>>,
}

impl SimulatedDisk {
    /// New empty disk with the given latency profile.
    pub fn new(profile: DiskProfile) -> Self {
        SimulatedDisk {
            profile,
            state: Arc::new(Mutex::new(DeviceState::default())),
        }
    }

    /// The latency profile in force.
    pub fn profile(&self) -> DiskProfile {
        self.profile
    }
}

impl Default for SimulatedDisk {
    fn default() -> Self {
        SimulatedDisk::new(DiskProfile::default())
    }
}

impl StableDevice for SimulatedDisk {
    fn append(&self, data: &[u8]) {
        self.state.lock().tail.extend_from_slice(data);
    }

    fn sync(&self) -> u64 {
        let mut st = self.state.lock();
        let n = st.tail.len() as u64;
        let cost = self.profile.seek_ns + n * self.profile.per_byte_ns;
        st.simulated_ns += cost;
        st.bytes_written += n;
        st.sync_count += 1;
        let tail = std::mem::take(&mut st.tail);
        st.make_durable(&tail);
        // The emptied buffer takes the next appends.
        st.tail = tail;
        st.tail.clear();
        cost
    }

    fn durable_bytes(&self) -> Vec<u8> {
        self.state.lock().durable_bytes()
    }

    fn all_bytes(&self) -> Vec<u8> {
        let st = self.state.lock();
        let mut v = st.durable_bytes();
        v.extend_from_slice(&st.tail);
        v
    }

    fn crash(&self, torn: Option<usize>) {
        let mut st = self.state.lock();
        let tail = std::mem::take(&mut st.tail);
        if let Some(k) = torn {
            st.make_durable(&tail[..k.min(tail.len())]);
        }
    }

    fn simulated_ns(&self) -> u64 {
        self.state.lock().simulated_ns
    }

    fn bytes_written(&self) -> u64 {
        self.state.lock().bytes_written
    }

    fn sync_count(&self) -> u64 {
        self.state.lock().sync_count
    }

    fn reset(&self) {
        let mut st = self.state.lock();
        st.durable.clear();
        st.tail.clear();
    }
}

/// A zero-cost device used for transient OFMs in tests and as the "memory
/// resident" device (syncs are free and instantaneous).
#[derive(Debug, Clone, Default)]
pub struct MemDevice {
    inner: SimulatedDisk,
}

impl MemDevice {
    /// New empty device.
    pub fn new() -> Self {
        MemDevice {
            inner: SimulatedDisk::new(DiskProfile::instant()),
        }
    }
}

impl StableDevice for MemDevice {
    fn append(&self, data: &[u8]) {
        self.inner.append(data)
    }
    fn sync(&self) -> u64 {
        self.inner.sync()
    }
    fn durable_bytes(&self) -> Vec<u8> {
        self.inner.durable_bytes()
    }
    fn all_bytes(&self) -> Vec<u8> {
        self.inner.all_bytes()
    }
    fn crash(&self, torn: Option<usize>) {
        self.inner.crash(torn)
    }
    fn simulated_ns(&self) -> u64 {
        self.inner.simulated_ns()
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
    fn sync_count(&self) -> u64 {
        self.inner.sync_count()
    }
    fn reset(&self) {
        self.inner.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_tail_is_lost_on_crash() {
        let d = SimulatedDisk::new(DiskProfile::instant());
        d.append(b"hello ");
        d.sync();
        d.append(b"world");
        assert_eq!(d.all_bytes(), b"hello world");
        d.crash(None);
        assert_eq!(d.durable_bytes(), b"hello ");
        assert_eq!(d.all_bytes(), b"hello ");
    }

    #[test]
    fn torn_write_keeps_prefix_of_tail() {
        let d = SimulatedDisk::new(DiskProfile::instant());
        d.append(b"abc");
        d.sync();
        d.append(b"defgh");
        d.crash(Some(2));
        assert_eq!(d.durable_bytes(), b"abcde");
    }

    #[test]
    fn latency_model_charges_seek_and_transfer() {
        let d = SimulatedDisk::new(DiskProfile {
            seek_ns: 100,
            per_byte_ns: 2,
        });
        d.append(&[0u8; 10]);
        let cost = d.sync();
        assert_eq!(cost, 100 + 20);
        assert_eq!(d.simulated_ns(), 120);
        assert_eq!(d.bytes_written(), 10);
        assert_eq!(d.sync_count(), 1);
    }

    #[test]
    fn durable_bytes_span_segments_in_order() {
        let d = SimulatedDisk::new(DiskProfile::instant());
        let data: Vec<u8> = (0..2 * SEGMENT_BYTES + 300).map(|i| i as u8).collect();
        for piece in data.chunks(SEGMENT_BYTES / 3 + 7) {
            d.append(piece);
            d.sync();
        }
        d.append(b"tail");
        d.crash(Some(2));
        assert_eq!(d.durable_bytes().len(), data.len() + 2);
        assert_eq!(&d.durable_bytes()[..data.len()], &data[..]);
        assert_eq!(&d.durable_bytes()[data.len()..], b"ta");
        assert_eq!(d.state.lock().durable.len(), 3);
        assert!(d
            .state
            .lock()
            .durable
            .iter()
            .all(|s| s.capacity() == SEGMENT_BYTES));
    }

    #[test]
    fn mem_device_costs_nothing() {
        let d = MemDevice::new();
        d.append(&[0u8; 1000]);
        d.sync();
        assert_eq!(d.simulated_ns(), 0);
        assert_eq!(d.durable_bytes().len(), 1000);
    }
}

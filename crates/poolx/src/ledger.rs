//! Communication metering for the POOL-X runtime.

use parking_lot::Mutex;
use prisma_multicomputer::CostModel;
use prisma_types::PeId;

/// Per-run ledger of inter-process traffic, kept in terms of the
/// multi-computer's cost model: local sends are free, remote sends charge
/// `bytes × hops` and estimated transfer nanoseconds.
///
/// The data-allocation experiments (E8) compare placements by exactly
/// these numbers, mirroring the paper's "proper balance between storage,
/// processing, and communication".
#[derive(Debug)]
pub struct TrafficLedger {
    cost: CostModel,
    inner: Mutex<LedgerInner>,
}

#[derive(Debug, Default)]
struct LedgerInner {
    local_messages: u64,
    remote_messages: u64,
    remote_bytes: u64,
    byte_hops: u64,
    est_transfer_ns: f64,
    per_pe_sent: Vec<u64>,
    /// Remote payload bytes sent per source PE.
    per_pe_sent_bytes: Vec<u64>,
    /// Remote payload bytes received per destination PE.
    per_pe_recv_bytes: Vec<u64>,
}

impl TrafficLedger {
    /// Ledger over a cost model.
    pub fn new(cost: CostModel) -> Self {
        let n = cost.topology().num_pes();
        TrafficLedger {
            cost,
            inner: Mutex::new(LedgerInner {
                per_pe_sent: vec![0; n],
                per_pe_sent_bytes: vec![0; n],
                per_pe_recv_bytes: vec![0; n],
                ..LedgerInner::default()
            }),
        }
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Record a message of `bytes` from `src` to `dst`.
    pub fn record(&self, src: PeId, dst: PeId, bytes: usize) {
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.per_pe_sent.get_mut(src.index()) {
            *slot += 1;
        }
        if src == dst {
            inner.local_messages += 1;
            return;
        }
        inner.remote_messages += 1;
        inner.remote_bytes += bytes as u64;
        if let Some(slot) = inner.per_pe_sent_bytes.get_mut(src.index()) {
            *slot += bytes as u64;
        }
        if let Some(slot) = inner.per_pe_recv_bytes.get_mut(dst.index()) {
            *slot += bytes as u64;
        }
        inner.byte_hops += self.cost.byte_hops(src, dst, bytes as u64);
        inner.est_transfer_ns += self.cost.transfer_ns(src, dst, bytes as u64);
    }

    /// Messages delivered PE-locally (free in the paper's model).
    pub fn local_messages(&self) -> u64 {
        self.inner.lock().local_messages
    }

    /// Messages that crossed the interconnect.
    pub fn remote_messages(&self) -> u64 {
        self.inner.lock().remote_messages
    }

    /// Total remote payload bytes.
    pub fn remote_bytes(&self) -> u64 {
        self.inner.lock().remote_bytes
    }

    /// Σ bytes×hops — the placement-quality metric.
    pub fn byte_hops(&self) -> u64 {
        self.inner.lock().byte_hops
    }

    /// Σ modelled transfer time (ns) on an idle network.
    pub fn est_transfer_ns(&self) -> f64 {
        self.inner.lock().est_transfer_ns
    }

    /// Messages sent per PE (load-balance signal).
    pub fn per_pe_sent(&self) -> Vec<u64> {
        self.inner.lock().per_pe_sent.clone()
    }

    /// Remote payload bytes one PE sent and received — `(sent, recv)`.
    /// `pe_bytes(COORDINATOR_PE)` is how much data transits the
    /// coordinator (e0's `multicomputer.coord_recv_kb`).
    pub fn pe_bytes(&self, pe: PeId) -> (u64, u64) {
        let inner = self.inner.lock();
        (
            inner.per_pe_sent_bytes.get(pe.index()).copied().unwrap_or(0),
            inner.per_pe_recv_bytes.get(pe.index()).copied().unwrap_or(0),
        )
    }

    /// Zero all counters.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        let n = inner.per_pe_sent.len();
        *inner = LedgerInner {
            per_pe_sent: vec![0; n],
            per_pe_sent_bytes: vec![0; n],
            per_pe_recv_bytes: vec![0; n],
            ..LedgerInner::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_types::MachineConfig;

    fn ledger() -> TrafficLedger {
        TrafficLedger::new(CostModel::new(&MachineConfig::paper_prototype()).unwrap())
    }

    #[test]
    fn local_sends_are_free() {
        let l = ledger();
        l.record(PeId(3), PeId(3), 10_000);
        assert_eq!(l.local_messages(), 1);
        assert_eq!(l.remote_bytes(), 0);
        assert_eq!(l.byte_hops(), 0);
    }

    #[test]
    fn remote_sends_charge_distance() {
        let l = ledger();
        l.record(PeId(0), PeId(1), 100); // 1 hop
        l.record(PeId(0), PeId(63), 100); // 14 hops on the 8x8 mesh
        assert_eq!(l.remote_messages(), 2);
        assert_eq!(l.remote_bytes(), 200);
        assert_eq!(l.byte_hops(), 100 + 1400);
        assert!(l.est_transfer_ns() > 0.0);
        assert_eq!(l.per_pe_sent()[0], 2);
        assert_eq!(l.pe_bytes(PeId(0)), (200, 0));
        assert_eq!(l.pe_bytes(PeId(63)), (0, 100));
        l.reset();
        assert_eq!(l.remote_messages(), 0);
        assert_eq!(l.pe_bytes(PeId(0)), (0, 0));
    }
}

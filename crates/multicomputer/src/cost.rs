//! Analytic communication-cost model used by the DBMS layers.
//!
//! The query optimizer's parallelism-allocation rules (paper §2.4) and the
//! data-allocation manager (§2.2) need to *predict* communication cost.
//! [`CostModel`] provides closed-form estimates of the paper's
//! store-and-forward network: a message of `b` bytes shipped over `h` hops
//! is segmented into ⌈8b/256⌉ packets that pipeline through the path.

use prisma_types::{MachineConfig, PeId, Result};

use crate::topology::Topology;

/// Closed-form communication cost estimates over a [`Topology`].
#[derive(Debug, Clone)]
pub struct CostModel {
    topology: Topology,
    packet_bits: u64,
    packet_tx_ns: f64,
    hop_latency_ns: f64,
}

impl CostModel {
    /// Build the cost model for a machine configuration.
    pub fn new(config: &MachineConfig) -> Result<CostModel> {
        Ok(CostModel {
            topology: Topology::build(config)?,
            packet_bits: config.packet_bits,
            packet_tx_ns: config.packet_bits as f64 / config.link_bandwidth_bps as f64 * 1e9,
            hop_latency_ns: config.hop_latency_ns as f64,
        })
    }

    /// Underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of 256-bit packets needed for a payload of `bytes`.
    pub fn packets_for(&self, bytes: u64) -> u64 {
        let bits = bytes * 8;
        bits.div_ceil(self.packet_bits).max(1)
    }

    /// Estimated nanoseconds to deliver `bytes` from `src` to `dst` on an
    /// otherwise idle network.
    ///
    /// Store-and-forward pipelining: the first packet pays the full
    /// `hops × (tx + hop_latency)`; each subsequent packet adds one `tx`
    /// (the path acts as a pipeline of depth `hops`).
    pub fn transfer_ns(&self, src: PeId, dst: PeId, bytes: u64) -> f64 {
        if src == dst || bytes == 0 {
            return 0.0;
        }
        let hops = self.topology.distance(src, dst) as f64;
        let packets = self.packets_for(bytes) as f64;
        hops * (self.packet_tx_ns + self.hop_latency_ns) + (packets - 1.0) * self.packet_tx_ns
    }

    /// Bytes × hops metric: total link-bandwidth consumption of shipping
    /// `bytes` from `src` to `dst`. The allocation manager minimizes this
    /// aggregate when placing fragments.
    pub fn byte_hops(&self, src: PeId, dst: PeId, bytes: u64) -> u64 {
        self.topology.distance(src, dst) as u64 * bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(&MachineConfig::paper_prototype()).unwrap()
    }

    #[test]
    fn packet_segmentation() {
        let m = model();
        assert_eq!(m.packets_for(0), 1);
        assert_eq!(m.packets_for(32), 1); // exactly 256 bits
        assert_eq!(m.packets_for(33), 2);
        assert_eq!(m.packets_for(3200), 100);
    }

    #[test]
    fn local_transfer_is_free() {
        let m = model();
        assert_eq!(m.transfer_ns(PeId(3), PeId(3), 1 << 20), 0.0);
    }

    #[test]
    fn pipelining_amortizes_hops() {
        let m = model();
        // 1000 packets over 14 hops should take ≈ (14 + 999) service times,
        // far less than 14 × 1000.
        let t = m.transfer_ns(PeId(0), PeId(63), 32_000);
        let tx = 25_600.0;
        let naive = 14.0 * 1000.0 * tx;
        assert!(t < naive / 5.0, "t={t}, naive={naive}");
        assert!(t > 999.0 * tx, "must at least serialize at the source");
    }

    #[test]
    fn nearer_destination_is_cheaper() {
        let m = model();
        let near = m.transfer_ns(PeId(0), PeId(1), 1024);
        let far = m.transfer_ns(PeId(0), PeId(63), 1024);
        assert!(near < far);
    }

    #[test]
    fn byte_hops_metric() {
        let m = model();
        assert_eq!(m.byte_hops(PeId(0), PeId(1), 100), 100);
        assert_eq!(m.byte_hops(PeId(0), PeId(63), 100), 1400);
    }
}

//! Measurement of simulated network behaviour.

use prisma_types::PeId;

use crate::sim::SimTime;

/// Counters accumulated by [`crate::NetworkSim`].
///
/// The headline metric of a throughput sweep is
/// [`NetworkStats::per_pe_throughput_pps`]: delivered packets per second per
/// PE, to be compared with the paper's "up to 20.000 packets per second for
/// each processing element simultaneously".
#[derive(Debug, Clone)]
pub struct NetworkStats {
    injected: Vec<u64>,
    delivered: Vec<u64>,
    total_latency_ns: u64,
    max_latency_ns: u64,
    first_delivery: Option<SimTime>,
    last_delivery: SimTime,
    link_busy_ns: u64,
    queue_wait_ns: u64,
    hops_served: u64,
}

impl NetworkStats {
    /// Fresh counters for an `n`-PE machine.
    pub fn new(n: usize) -> Self {
        NetworkStats {
            injected: vec![0; n],
            delivered: vec![0; n],
            total_latency_ns: 0,
            max_latency_ns: 0,
            first_delivery: None,
            last_delivery: 0,
            link_busy_ns: 0,
            queue_wait_ns: 0,
            hops_served: 0,
        }
    }

    pub(crate) fn record_injected(&mut self, src: PeId) {
        self.injected[src.index()] += 1;
    }

    pub(crate) fn record_delivered(&mut self, dst: PeId, now: SimTime, injected_at: SimTime) {
        self.delivered[dst.index()] += 1;
        let lat = now.saturating_sub(injected_at);
        self.total_latency_ns += lat;
        self.max_latency_ns = self.max_latency_ns.max(lat);
        self.first_delivery.get_or_insert(now);
        self.last_delivery = self.last_delivery.max(now);
    }

    pub(crate) fn record_link_busy(&mut self, _src: PeId, busy_ns: u64, wait_ns: u64) {
        self.link_busy_ns += busy_ns;
        self.queue_wait_ns += wait_ns;
        self.hops_served += 1;
    }

    /// Total packets injected.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Total packets delivered.
    pub fn delivered_total(&self) -> u64 {
        self.delivered.iter().sum()
    }

    /// Packets delivered to each PE.
    pub fn delivered_per_pe(&self) -> &[u64] {
        &self.delivered
    }

    /// Sum of end-to-end packet latencies.
    pub fn total_latency_ns(&self) -> u64 {
        self.total_latency_ns
    }

    /// Mean end-to-end latency in nanoseconds.
    pub fn mean_latency_ns(&self) -> f64 {
        let d = self.delivered_total();
        if d == 0 {
            0.0
        } else {
            self.total_latency_ns as f64 / d as f64
        }
    }

    /// Worst observed end-to-end latency.
    pub fn max_latency_ns(&self) -> u64 {
        self.max_latency_ns
    }

    /// Mean queueing delay per hop (time a packet sat waiting for a busy
    /// link), a saturation indicator.
    pub fn mean_queue_wait_ns(&self) -> f64 {
        if self.hops_served == 0 {
            0.0
        } else {
            self.queue_wait_ns as f64 / self.hops_served as f64
        }
    }

    /// Total link-hops served.
    pub fn hops_served(&self) -> u64 {
        self.hops_served
    }

    /// Delivered packets per second per PE over the given measurement
    /// window — the sweep's headline number.
    pub fn per_pe_throughput_pps(&self, window_ns: u64) -> f64 {
        if window_ns == 0 {
            return 0.0;
        }
        let n = self.delivered.len().max(1) as f64;
        self.delivered_total() as f64 / (window_ns as f64 / 1e9) / n
    }

    /// Ratio of delivered to injected packets; < 1 while the network still
    /// holds undelivered traffic.
    pub fn delivery_ratio(&self) -> f64 {
        let inj = self.injected_total();
        if inj == 0 {
            1.0
        } else {
            self.delivered_total() as f64 / inj as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let mut s = NetworkStats::new(4);
        for _ in 0..400 {
            s.record_injected(PeId(0));
            s.record_delivered(PeId(1), 1_000_000_000, 0);
        }
        // 400 packets in 1 s across 4 PEs = 100 pps/PE.
        assert!((s.per_pe_throughput_pps(1_000_000_000) - 100.0).abs() < 1e-9);
        assert!((s.delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_tracking() {
        let mut s = NetworkStats::new(2);
        s.record_delivered(PeId(0), 150, 100);
        s.record_delivered(PeId(1), 400, 100);
        assert_eq!(s.total_latency_ns(), 350);
        assert_eq!(s.max_latency_ns(), 300);
        assert!((s.mean_latency_ns() - 175.0).abs() < 1e-9);
    }
}

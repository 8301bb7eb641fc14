//! Synthetic traffic patterns for the network throughput sweep.
//!
//! The paper reports throughput for PEs sending "simultaneously"; the
//! canonical workload for such a claim is uniform random traffic, which we
//! complement with the standard adversarial patterns used in interconnect
//! studies (hotspot, bit-reversal-like permutation, nearest neighbour).

use prisma_types::PeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sim::{NetworkSim, SimTime};

/// Destination-selection strategy for generated packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Every packet picks a uniformly random destination ≠ source.
    UniformRandom,
    /// A fraction `hot_fraction` of packets targets PE 0; the rest uniform.
    Hotspot {
        /// Fraction of packets addressed to the hot PE (0.0–1.0).
        hot_fraction: f64,
    },
    /// Fixed permutation: PE `i` always sends to PE `(i + n/2) mod n`
    /// (worst-case distance on a ring, long paths on a mesh).
    Transpose,
    /// PE `i` sends to a uniformly chosen direct neighbour (best case).
    NearestNeighbor,
}

impl TrafficPattern {
    fn pick_dst(&self, src: PeId, n: usize, sim: &NetworkSim, rng: &mut StdRng) -> PeId {
        match self {
            TrafficPattern::UniformRandom => loop {
                let d = PeId::from(rng.gen_range(0..n));
                if d != src {
                    return d;
                }
            },
            TrafficPattern::Hotspot { hot_fraction } => {
                if rng.gen_bool((*hot_fraction).clamp(0.0, 1.0)) && src != PeId(0) {
                    PeId(0)
                } else {
                    TrafficPattern::UniformRandom.pick_dst(src, n, sim, rng)
                }
            }
            TrafficPattern::Transpose => PeId::from((src.index() + n / 2) % n),
            TrafficPattern::NearestNeighbor => {
                let nbrs = sim.topology().neighbors(src);
                nbrs[rng.gen_range(0..nbrs.len())]
            }
        }
    }
}

/// Open-loop traffic generator: every PE injects packets with exponential
/// inter-arrival times of mean `1/rate_pps`, destinations drawn from
/// `pattern`.
///
/// Returns the number of packets injected. Use
/// [`NetworkSim::reset_stats`] after a warm-up run for steady-state
/// measurements.
pub fn inject_open_loop(
    sim: &mut NetworkSim,
    pattern: TrafficPattern,
    rate_pps: f64,
    start: SimTime,
    end: SimTime,
    seed: u64,
) -> u64 {
    let n = sim.topology().num_pes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut injected = 0;
    for pe in 0..n {
        let src = PeId::from(pe);
        let mut t = start as f64;
        loop {
            // Exponential inter-arrival: -ln(U)/rate seconds.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / rate_pps * 1e9;
            if t >= end as f64 {
                break;
            }
            let dst = pattern.pick_dst(src, n, sim, &mut rng);
            sim.inject(src, dst, t as SimTime);
            injected += 1;
        }
    }
    injected
}

/// Measured outcome of one offered-load point in a throughput sweep.
#[derive(Debug, Clone, Copy)]
pub struct LoadPoint {
    /// Offered load per PE, packets/second.
    pub offered_pps: f64,
    /// Delivered throughput per PE, packets/second.
    pub delivered_pps: f64,
    /// Mean end-to-end latency, microseconds.
    pub mean_latency_us: f64,
    /// Mean per-hop queueing delay, microseconds.
    pub mean_queue_wait_us: f64,
}

/// Run a full offered-load sweep: the paper's per-PE throughput claim.
///
/// For each offered rate, the network is warmed up for `warmup_ms`, stats
/// are reset, and throughput is measured over `measure_ms` of simulated
/// time. The returned curve flattens at the saturation throughput, which
/// for the paper's parameters lands near 20 000 packets/s/PE.
pub fn throughput_sweep(
    config: &prisma_types::MachineConfig,
    pattern: TrafficPattern,
    offered_rates_pps: &[f64],
    warmup_ms: u64,
    measure_ms: u64,
    seed: u64,
) -> Vec<LoadPoint> {
    let mut points = Vec::with_capacity(offered_rates_pps.len());
    for (i, &rate) in offered_rates_pps.iter().enumerate() {
        let mut sim = NetworkSim::new(config).expect("valid config");
        let warm_end = warmup_ms * 1_000_000;
        let meas_end = warm_end + measure_ms * 1_000_000;
        inject_open_loop(&mut sim, pattern, rate, 0, meas_end, seed ^ (i as u64) << 32);
        sim.run_until(warm_end);
        sim.reset_stats();
        sim.run_until(meas_end);
        let st = sim.stats();
        points.push(LoadPoint {
            offered_pps: rate,
            delivered_pps: st.per_pe_throughput_pps(meas_end - warm_end),
            mean_latency_us: st.mean_latency_ns() / 1e3,
            mean_queue_wait_us: st.mean_queue_wait_ns() / 1e3,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_types::MachineConfig;

    #[test]
    fn open_loop_injection_rate_is_close_to_requested() {
        let cfg = MachineConfig::paper_prototype();
        let mut sim = NetworkSim::new(&cfg).unwrap();
        // 1000 pps per PE for 100 ms => ~100 packets per PE => ~6400 total.
        let injected =
            inject_open_loop(&mut sim, TrafficPattern::UniformRandom, 1000.0, 0, 100_000_000, 7);
        assert!(
            (4500..8500).contains(&injected),
            "injected {injected}, expected ≈6400"
        );
    }

    #[test]
    fn low_load_is_fully_delivered() {
        let cfg = MachineConfig::paper_prototype();
        let mut sim = NetworkSim::new(&cfg).unwrap();
        inject_open_loop(&mut sim, TrafficPattern::UniformRandom, 500.0, 0, 50_000_000, 11);
        sim.run_to_completion();
        assert!((sim.stats().delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_neighbor_beats_transpose_on_latency() {
        let cfg = MachineConfig::paper_prototype();
        let run = |p| {
            let mut sim = NetworkSim::new(&cfg).unwrap();
            inject_open_loop(&mut sim, p, 1000.0, 0, 20_000_000, 3);
            sim.run_to_completion();
            sim.stats().mean_latency_ns()
        };
        let nn = run(TrafficPattern::NearestNeighbor);
        let tr = run(TrafficPattern::Transpose);
        assert!(nn < tr, "nearest-neighbour {nn} should beat transpose {tr}");
    }

    #[test]
    fn sweep_saturates_below_offered_load() {
        // Offer far more than a link can carry; delivered must flatten well
        // below the offered rate.
        let cfg = MachineConfig::paper_prototype();
        let pts = throughput_sweep(
            &cfg,
            TrafficPattern::UniformRandom,
            &[5_000.0, 80_000.0],
            5,
            20,
            42,
        );
        assert!(pts[0].delivered_pps > 4_000.0, "{:?}", pts[0]);
        assert!(
            pts[1].delivered_pps < 45_000.0,
            "saturated point should be far below 80k: {:?}",
            pts[1]
        );
        assert!(pts[1].mean_queue_wait_us > pts[0].mean_queue_wait_us);
    }

    #[test]
    fn hotspot_concentrates_deliveries_on_pe0() {
        let cfg = MachineConfig::paper_prototype();
        let mut sim = NetworkSim::new(&cfg).unwrap();
        inject_open_loop(
            &mut sim,
            TrafficPattern::Hotspot { hot_fraction: 0.5 },
            500.0,
            0,
            50_000_000,
            9,
        );
        sim.run_to_completion();
        let per = sim.stats().delivered_per_pe();
        let total: u64 = per.iter().sum();
        assert!(
            per[0] as f64 > 0.3 * total as f64,
            "hotspot PE got {} of {}",
            per[0],
            total
        );
    }
}

//! The paper's interconnect simulation (§3.2).
//!
//! "Various simulations show an average network throughput of up to
//! 20.000 packets (of 256 bits) per second for each processing element
//! simultaneously." This example re-runs that simulation: an offered-load
//! sweep of uniform random traffic on the 64-PE machine, for both the
//! mesh and the chordal-ring topology.
//!
//! ```sh
//! cargo run --release --example network_sim
//! ```

use prisma::multicomputer::traffic::{throughput_sweep, TrafficPattern};
use prisma::{MachineConfig, TopologyKind};

fn main() {
    let rates = [
        2_000.0, 5_000.0, 10_000.0, 15_000.0, 20_000.0, 25_000.0, 30_000.0, 40_000.0,
    ];
    for (label, topology) in [
        ("8x8 mesh", TopologyKind::Mesh),
        ("chordal ring (stride 8)", TopologyKind::ChordalRing { stride: 8 }),
    ] {
        let cfg = MachineConfig::paper_prototype().with_topology(topology);
        println!("\n== {label}: 64 PEs, 4 x 10 Mbit/s links, 256-bit packets ==");
        println!(
            "{:>14} {:>16} {:>14} {:>16}",
            "offered/PE", "delivered/PE", "latency µs", "queue-wait µs"
        );
        let points = throughput_sweep(&cfg, TrafficPattern::UniformRandom, &rates, 20, 80, 42);
        let mut peak: f64 = 0.0;
        for p in &points {
            peak = peak.max(p.delivered_pps);
            println!(
                "{:>14.0} {:>16.0} {:>14.1} {:>16.1}",
                p.offered_pps, p.delivered_pps, p.mean_latency_us, p.mean_queue_wait_us
            );
        }
        println!(
            "saturation throughput ≈ {:.0} packets/s per PE (paper: \"up to 20.000\")",
            peak
        );
    }
}

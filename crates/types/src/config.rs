//! Machine configuration — the paper's §3.2 prototype parameters.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::error::{PrismaError, Result};

/// Interconnect topology of the multi-computer.
///
/// The paper: "The topology of the interconnection network will be
/// mesh-like or a variant of a chordal ring" (§3.2). Every PE has four
/// communication links, which constrains the mesh to degree ≤ 4 and the
/// chordal ring to ring + one chord pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// 2-D mesh of `rows × cols` PEs; interior nodes use all four links.
    Mesh,
    /// Ring plus chords of the given stride; degree 4 (two ring + two
    /// chord links per PE).
    ChordalRing {
        /// Chord stride; each PE `i` additionally links to `i ± stride`.
        stride: u32,
    },
    /// Every PE one hop from every other — an idealized upper bound used in
    /// ablation benches, not buildable with 4 links.
    FullyConnected,
}

/// Configuration of the simulated PRISMA machine.
///
/// Defaults reproduce the paper's prototype: 64 PEs, 16 MB of local memory
/// each, four links of 10 Mbit/s, 256-bit packets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of processing elements (paper: 64).
    pub num_pes: usize,
    /// Local main memory per PE in bytes (paper: 16 MByte).
    pub memory_per_pe: usize,
    /// Link bandwidth in bits per second (paper: 10 Mbit/sec).
    pub link_bandwidth_bps: u64,
    /// Number of communication links per PE (paper: 4).
    pub links_per_pe: usize,
    /// Network packet size in bits (paper: 256).
    pub packet_bits: u64,
    /// Interconnect topology.
    pub topology: TopologyKind,
    /// Per-hop switching latency in nanoseconds added on top of the
    /// store-and-forward transmission time.
    pub hop_latency_ns: u64,
    /// Which PEs own a disk for stable storage (paper §3.2: "some of the
    /// processing elements will also be connected to secondary storage").
    /// Expressed as a stride: PE `i` has a disk iff `i % disk_stride == 0`.
    pub disk_stride: usize,
    /// How long coordinators wait for a fragment/participant reply before
    /// presuming it dead, in seconds (the failover trigger: a fired
    /// deadline is what flips a query to a fragment's backup replica).
    /// The `REPLY_TIMEOUT_SECS` environment variable overrides this at
    /// runtime ([`Self::effective_reply_timeout_secs`]). Absent from
    /// older serialized configs, hence the serde default.
    #[serde(default)]
    pub reply_timeout_secs: u64,
    /// Compute workers per PE for morsel-driven intra-fragment
    /// parallelism, the thread that runs the fragment's plan included: a
    /// width of `w` spawns `w − 1` helper threads per PE. `0` (the
    /// default) resolves at boot: the `OFM_WORKERS` environment variable
    /// if set, else the host's available parallelism. `1` restores the
    /// serial per-PE baseline. Only fragments of at least two morsels
    /// (`prisma_relalg::MORSEL_ROWS` rows each) run on the pool. Absent
    /// from older serialized configs, hence the serde default.
    #[serde(default)]
    pub ofm_workers: usize,
    /// Delta-heap row count at which a fragment seals a column chunk.
    /// `0` (the default) resolves at boot: the `SEAL_EVERY` environment
    /// variable if set, else [`crate::DEFAULT_SEAL_EVERY`]. Absent from
    /// older serialized configs, hence the serde default.
    #[serde(default)]
    pub seal_rows: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            num_pes: 64,
            memory_per_pe: 16 * 1024 * 1024,
            link_bandwidth_bps: 10_000_000,
            links_per_pe: 4,
            packet_bits: 256,
            topology: TopologyKind::Mesh,
            hop_latency_ns: 2_000,
            disk_stride: 8,
            reply_timeout_secs: 60,
            ofm_workers: 0,
            seal_rows: 0,
        }
    }
}

impl MachineConfig {
    /// The paper's 64-PE prototype with a mesh interconnect.
    pub fn paper_prototype() -> Self {
        MachineConfig::default()
    }

    /// A small machine for unit tests: 4 PEs, generous memory.
    pub fn tiny() -> Self {
        MachineConfig {
            num_pes: 4,
            topology: TopologyKind::ChordalRing { stride: 2 },
            ..MachineConfig::default()
        }
    }

    /// Builder-style override of the PE count.
    pub fn with_pes(mut self, n: usize) -> Self {
        self.num_pes = n;
        self
    }

    /// Builder-style override of the topology.
    pub fn with_topology(mut self, t: TopologyKind) -> Self {
        self.topology = t;
        self
    }

    /// Builder-style override of the per-PE memory budget.
    pub fn with_memory_per_pe(mut self, bytes: usize) -> Self {
        self.memory_per_pe = bytes;
        self
    }

    /// Builder-style override of the coordinator reply timeout.
    pub fn with_reply_timeout_secs(mut self, secs: u64) -> Self {
        self.reply_timeout_secs = secs;
        self
    }

    /// Builder-style override of the per-PE compute worker count
    /// (`0` = auto-detect at boot, `1` = serial baseline).
    pub fn with_ofm_workers(mut self, n: usize) -> Self {
        self.ofm_workers = n;
        self
    }

    /// Builder-style override of the chunk-seal threshold
    /// (`0` = resolve from `SEAL_EVERY`/default at boot).
    pub fn with_seal_rows(mut self, n: usize) -> Self {
        self.seal_rows = n;
        self
    }

    /// Resolve [`seal_rows`](Self::seal_rows) to a concrete threshold.
    ///
    /// Precedence: an explicit non-zero config value wins; otherwise the
    /// process-wide [`crate::seal_every`] resolution (the `SEAL_EVERY`
    /// environment variable, else [`crate::DEFAULT_SEAL_EVERY`]).
    /// Never returns 0.
    pub fn effective_seal_rows(&self) -> usize {
        if self.seal_rows > 0 {
            return self.seal_rows;
        }
        crate::seal_every()
    }

    /// Resolve [`ofm_workers`](Self::ofm_workers) to a concrete count.
    ///
    /// Precedence: an explicit non-zero config value wins; otherwise the
    /// `OFM_WORKERS` environment variable (CI runs the suite under
    /// `OFM_WORKERS=4`); otherwise the host's available parallelism.
    /// Never returns 0.
    pub fn effective_ofm_workers(&self) -> usize {
        if self.ofm_workers > 0 {
            return self.ofm_workers;
        }
        if let Ok(v) = std::env::var("OFM_WORKERS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Resolve the coordinator reply timeout to a concrete value, in
    /// seconds.
    ///
    /// Precedence: the `REPLY_TIMEOUT_SECS` environment variable when it
    /// parses to a positive integer (CI's fault-injection matrix shortens
    /// deadlines this way without touching serialized configs); otherwise
    /// the configured [`reply_timeout_secs`](Self::reply_timeout_secs).
    /// Never returns 0.
    pub fn effective_reply_timeout_secs(&self) -> u64 {
        Self::reply_timeout_override(
            std::env::var("REPLY_TIMEOUT_SECS").ok().as_deref(),
            self.reply_timeout_secs,
        )
    }

    /// Pure resolution rule behind
    /// [`effective_reply_timeout_secs`](Self::effective_reply_timeout_secs),
    /// split out so the precedence is testable without mutating the
    /// process environment.
    pub fn reply_timeout_override(env: Option<&str>, configured: u64) -> u64 {
        match env.and_then(|v| v.trim().parse::<u64>().ok()) {
            Some(n) if n > 0 => n,
            _ => configured.max(1),
        }
    }

    /// The coordinator reply timeout as a [`Duration`], environment
    /// override applied.
    pub fn reply_timeout(&self) -> Duration {
        Duration::from_secs(self.effective_reply_timeout_secs())
    }

    /// Seconds to push one packet through one link.
    pub fn packet_tx_seconds(&self) -> f64 {
        self.packet_bits as f64 / self.link_bandwidth_bps as f64
    }

    /// Validate internal consistency; called by the machine constructor.
    pub fn validate(&self) -> Result<()> {
        if self.num_pes == 0 {
            return Err(PrismaError::Config("num_pes must be > 0".into()));
        }
        if self.link_bandwidth_bps == 0 || self.packet_bits == 0 {
            return Err(PrismaError::Config(
                "bandwidth and packet size must be > 0".into(),
            ));
        }
        if let TopologyKind::ChordalRing { stride } = self.topology {
            if stride == 0 || stride as usize >= self.num_pes.max(1) {
                return Err(PrismaError::Config(format!(
                    "chord stride {stride} invalid for {} PEs",
                    self.num_pes
                )));
            }
        }
        if self.disk_stride == 0 {
            return Err(PrismaError::Config("disk_stride must be > 0".into()));
        }
        if self.reply_timeout_secs == 0 {
            return Err(PrismaError::Config(
                "reply_timeout_secs must be > 0".into(),
            ));
        }
        Ok(())
    }

    /// True when PE `i` owns a disk for stable storage.
    pub fn pe_has_disk(&self, i: usize) -> bool {
        i.is_multiple_of(self.disk_stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = MachineConfig::paper_prototype();
        assert_eq!(c.num_pes, 64);
        assert_eq!(c.memory_per_pe, 16 << 20);
        assert_eq!(c.link_bandwidth_bps, 10_000_000);
        assert_eq!(c.packet_bits, 256);
        assert_eq!(c.links_per_pe, 4);
        // 256 bits over 10 Mbit/s = 25.6 µs per packet per hop.
        assert!((c.packet_tx_seconds() - 25.6e-6).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(MachineConfig::default().validate().is_ok());
        let c = MachineConfig {
            num_pes: 0,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err());
        let c = MachineConfig {
            topology: TopologyKind::ChordalRing { stride: 64 },
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err());
        let c = MachineConfig {
            disk_stride: 0,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn reply_timeout_is_configurable_and_validated() {
        let c = MachineConfig::default();
        assert_eq!(c.reply_timeout(), Duration::from_secs(60));
        let c = c.with_reply_timeout_secs(5);
        assert_eq!(c.reply_timeout(), Duration::from_secs(5));
        assert!(c.validate().is_ok());
        let c = MachineConfig {
            reply_timeout_secs: 0,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn reply_timeout_env_override_precedence() {
        // Env wins when it parses to a positive integer.
        assert_eq!(MachineConfig::reply_timeout_override(Some("5"), 60), 5);
        assert_eq!(MachineConfig::reply_timeout_override(Some(" 7 "), 60), 7);
        // Unset, garbage or zero falls back to the configured value.
        assert_eq!(MachineConfig::reply_timeout_override(None, 60), 60);
        assert_eq!(MachineConfig::reply_timeout_override(Some("abc"), 60), 60);
        assert_eq!(MachineConfig::reply_timeout_override(Some("0"), 60), 60);
        // The resolved value never reaches 0 even for a zero config.
        assert_eq!(MachineConfig::reply_timeout_override(None, 0), 1);
    }

    #[test]
    fn ofm_workers_resolution() {
        // Explicit non-zero config beats everything.
        let c = MachineConfig::default().with_ofm_workers(3);
        assert_eq!(c.effective_ofm_workers(), 3);
        // Auto (0) resolves to something positive.
        let c = MachineConfig::default();
        assert_eq!(c.ofm_workers, 0);
        assert!(c.effective_ofm_workers() >= 1);
        // The serial baseline stays expressible.
        assert_eq!(MachineConfig::tiny().with_ofm_workers(1).effective_ofm_workers(), 1);
    }

    #[test]
    fn disk_placement_follows_stride() {
        let c = MachineConfig::paper_prototype();
        assert!(c.pe_has_disk(0));
        assert!(!c.pe_has_disk(1));
        assert!(c.pe_has_disk(8));
    }
}

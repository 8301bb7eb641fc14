//! The fixed machine every workload runs on. Each knob is set explicitly
//! through `MachineConfig` (never through the environment, see
//! [`crate::spec::FORBIDDEN_ENV`]) so numbers from two runs compare.

use prisma_core::optimizer::PhysicalConfig;
use prisma_core::stable::DiskProfile;
use prisma_core::types::{MachineConfig, TopologyKind};
use prisma_core::{AllocationPolicy, PrismaMachine, Tuple};

/// PEs of the main machine.
pub const PES: usize = 8;
/// Compute workers per PE.
pub const OFM_WORKERS: usize = 2;
/// Rows per sealed column chunk.
pub const SEAL_ROWS: usize = 1024;
/// Rows per `insert` message while loading.
const LOAD_CHUNK: usize = 5000;

/// The benchmark's machine configuration: mesh, two workers per PE,
/// 1024-row chunks, everything else the paper prototype's defaults.
pub fn config(pes: usize, reply_timeout_secs: u64) -> MachineConfig {
    MachineConfig {
        num_pes: pes,
        topology: TopologyKind::Mesh,
        reply_timeout_secs,
        ofm_workers: OFM_WORKERS,
        seal_rows: SEAL_ROWS,
        ..MachineConfig::paper_prototype()
    }
}

/// Boot a machine with load-balanced placement, instant disks, the
/// columnar wire and streamed shipping, and the given physical-lowering
/// tunables.
pub fn boot(cfg: MachineConfig, physical: PhysicalConfig) -> Result<PrismaMachine, String> {
    let mut db = PrismaMachine::builder()
        .config(cfg)
        .allocation(AllocationPolicy::LoadBalanced)
        .disk_profile(DiskProfile::instant())
        .build()
        .map_err(|e| format!("boot: {e}"))?;
    let gdh = db.gdh_mut();
    gdh.set_columnar_wire(true);
    gdh.set_streaming(true);
    gdh.set_physical_config(physical);
    Ok(db)
}

/// Bulk-load `rows` into `table` under one transaction, then refresh the
/// optimizer's statistics for it.
pub fn load(db: &PrismaMachine, table: &str, rows: &[Tuple]) -> Result<(), String> {
    let txn = db.begin();
    for chunk in rows.chunks(LOAD_CHUNK) {
        db.gdh()
            .insert(txn, table, chunk.to_vec())
            .map_err(|e| format!("load {table}: {e}"))?;
    }
    db.commit(txn)
        .map_err(|e| format!("load {table}: commit: {e}"))?;
    db.refresh_stats(table)
        .map_err(|e| format!("refresh_stats {table}: {e}"))
}

/// The configuration as a JSON object, for the run's echo line.
pub fn config_json(cfg: &MachineConfig, physical: &PhysicalConfig) -> String {
    format!(
        "{{\"num_pes\": {}, \"topology\": \"{:?}\", \"memory_per_pe\": {}, \"link_bandwidth_bps\": {}, \"links_per_pe\": {}, \"packet_bits\": {}, \"hop_latency_ns\": {}, \"disk_stride\": {}, \"reply_timeout_secs\": {}, \"ofm_workers\": {}, \"seal_rows\": {}, \"allocation\": \"LoadBalanced\", \"disk\": \"instant\", \"columnar_wire\": true, \"streaming\": true, \"broadcast_max_rows\": {}, \"shuffle_parts\": \"{:?}\", \"skew_aware_placement\": {}}}",
        cfg.num_pes,
        cfg.topology,
        cfg.memory_per_pe,
        cfg.link_bandwidth_bps,
        cfg.links_per_pe,
        cfg.packet_bits,
        cfg.hop_latency_ns,
        cfg.disk_stride,
        cfg.reply_timeout_secs,
        cfg.ofm_workers,
        cfg.seal_rows,
        physical.broadcast_max_rows,
        physical.shuffle_parts,
        physical.skew_aware_placement,
    )
}

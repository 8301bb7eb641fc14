//! `failover`: every iteration boots a fresh 4-PE machine with a 1 s
//! reply deadline (outside the timer), loads E10's `emp`/`dept`, arms a
//! seeded fault script that kills one PE three messages into the join,
//! and times the forced-grace join. The killed PE stays dead, hence the
//! fresh machine; the result must equal the fault-free run's.

use std::sync::Arc;

use prisma_core::faultx::{FaultInjector, FaultSpec};
use prisma_core::optimizer::PhysicalConfig;
use prisma_core::types::{tuple, Column, DataType, MachineConfig, PeId, Schema};
use prisma_core::{PrismaMachine, Relation};

use super::{ddl, Scale, Seen, Stmt, Workload};
use crate::check::{self, Base, Expect};
use crate::machine;

const JOIN: &str = "SELECT e.id, d.name FROM emp e, dept d WHERE e.dept = d.id ORDER BY e.id";
const VICTIM_PE: u32 = 2;
const REPLY_TIMEOUT_SECS: u64 = 1;

pub struct Failover {
    seed: u64,
    base: Base,
    iterations: u64,
    reference: Option<Arc<Relation>>,
}

impl Failover {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let rows = scale.pick(2_000, 1_200) as i64;
        let emp = (0..rows)
            .map(|i| tuple![i, i % 20, (100 + i % 1000) as f64])
            .collect();
        let dept = (0..20i64).map(|d| tuple![d, format!("d{d}")]).collect();
        let mut base = Base::new();
        base.insert(
            "emp".to_owned(),
            Arc::new(Relation::new(
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("dept", DataType::Int),
                    Column::new("sal", DataType::Double),
                ]),
                emp,
            )),
        );
        base.insert(
            "dept".to_owned(),
            Arc::new(Relation::new(
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("name", DataType::Str),
                ]),
                dept,
            )),
        );
        Failover {
            seed,
            base,
            iterations: 0,
            reference: None,
        }
    }

    /// Boot and load one machine; `faults` must be installed before the
    /// tables are created, so the OFM actors are spawned with it.
    fn machine(&self, faults: Option<Arc<FaultInjector>>) -> Result<PrismaMachine, String> {
        let mut db = machine::boot(self.config(), self.physical())?;
        if let Some(f) = faults {
            db.gdh_mut().set_fault_injector(f);
        }
        ddl(
            &db,
            "CREATE TABLE emp (id INT, dept INT, sal DOUBLE) FRAGMENTED BY HASH(id) INTO 4",
        )?;
        ddl(
            &db,
            "CREATE TABLE dept (id INT, name STRING) FRAGMENTED BY HASH(id) INTO 2",
        )?;
        for table in ["emp", "dept"] {
            machine::load(&db, table, self.base[table].tuples())?;
        }
        Ok(db)
    }
}

impl Workload for Failover {
    fn config(&self) -> MachineConfig {
        machine::config(4, REPLY_TIMEOUT_SECS)
    }

    /// E10's forced grace path: it has the most mid-flight state to lose.
    fn physical(&self) -> PhysicalConfig {
        PhysicalConfig {
            broadcast_max_rows: 0.0,
            ..PhysicalConfig::default()
        }
    }

    /// The fault-free machine: its join result, checked against the
    /// oracle, is what every recovered run must reproduce.
    fn setup(&mut self) -> Result<PrismaMachine, String> {
        let db = self.machine(None)?;
        self.reference = Some(Arc::new(check::oracle_sql(&db, &self.base, JOIN)?));
        Ok(db)
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn null_query(&self) -> &'static str {
        "SELECT dept FROM emp WHERE id = -1"
    }

    fn plan(&mut self) -> Vec<Stmt> {
        vec![Stmt::Query {
            id: "X1",
            sql: JOIN.to_owned(),
            expect: match &self.reference {
                Some(reference) => Expect {
                    rows: reference.len(),
                    checksum: 0,
                    exact: Some(reference.clone()),
                },
                None => Expect::unset(),
            },
        }]
    }

    fn iteration_machine(&mut self) -> Result<Option<PrismaMachine>, String> {
        self.iterations += 1;
        let faults = FaultInjector::scripted(self.seed.wrapping_add(self.iterations), vec![]);
        let db = self.machine(Some(faults.clone()))?;
        faults.script(vec![FaultSpec::KillPeAtMessage {
            pe: PeId(VICTIM_PE),
            at: faults.messages_seen(PeId(VICTIM_PE)) + 3,
        }]);
        Ok(Some(db))
    }

    fn check_warmup(&self, seen: &Seen) -> Result<(), String> {
        match seen.get("X1") {
            Some(m) if m.failovers >= 1 && m.streams_rerequested >= 1 => Ok(()),
            Some(m) => Err(format!(
                "the scripted kill did not force a failover ({} promotions, {} streams re-requested)",
                m.failovers, m.streams_rerequested
            )),
            None => Err("no join ran during warm-up".to_owned()),
        }
    }
}

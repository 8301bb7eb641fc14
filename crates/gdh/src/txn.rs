//! The transaction manager: two-phase commit across OFM participants.
//!
//! The GDH is the 2PC coordinator. Persistent OFMs force `Prepared` and
//! `Commit` records to their disk PE's WAL; the coordinator forces its own
//! decision record before phase 2, so recovery can always resolve in-doubt
//! participants. Lock release (strict 2PL) happens only after the
//! decision.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use prisma_poolx::PoolRuntime;
use prisma_stable::{LogPayload, WriteAheadLog};
use prisma_types::{PrismaError, ProcessId, Result, TxnId};

use crate::locks::LockManager;
use crate::message::GdhMsg;

/// Fallback participant-reply timeout when none is configured (the GDH
/// passes `MachineConfig::reply_timeout` through `with_reply_timeout`).
const DEFAULT_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Default)]
struct TxnState {
    participants: HashSet<ProcessId>,
}

/// Outcome metrics of a 2PC commit.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitMetrics {
    /// Participants involved.
    pub participants: usize,
    /// Total simulated disk ns forced across participants + coordinator.
    pub disk_ns: u64,
    /// Messages exchanged (prepare + votes + commits + acks).
    pub messages: u64,
}

/// The 2PC coordinator.
pub struct TransactionManager {
    runtime: Arc<PoolRuntime<GdhMsg>>,
    locks: Arc<LockManager>,
    coordinator_log: Arc<WriteAheadLog>,
    next: AtomicU32,
    active: Mutex<HashMap<TxnId, TxnState>>,
    reply_timeout: Duration,
}

impl TransactionManager {
    /// Coordinator over the runtime, lock manager and a coordinator WAL.
    pub fn new(
        runtime: Arc<PoolRuntime<GdhMsg>>,
        locks: Arc<LockManager>,
        coordinator_log: Arc<WriteAheadLog>,
    ) -> Self {
        TransactionManager {
            runtime,
            locks,
            coordinator_log,
            next: AtomicU32::new(1),
            active: Mutex::new(HashMap::new()),
            reply_timeout: DEFAULT_REPLY_TIMEOUT,
        }
    }

    /// Override the participant-reply timeout (from the machine config).
    pub fn with_reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = timeout;
        self
    }

    /// The lock manager (shared with the executor).
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// Begin a transaction.
    pub fn begin(&self) -> TxnId {
        let txn = TxnId(self.next.fetch_add(1, Ordering::Relaxed));
        self.coordinator_log.append(&LogPayload::Begin { txn });
        self.active.lock().insert(txn, TxnState::default());
        txn
    }

    /// Record that `txn` touched the OFM served by `actor`.
    pub fn register_participant(&self, txn: TxnId, actor: ProcessId) -> Result<()> {
        let mut active = self.active.lock();
        let st = active.get_mut(&txn).ok_or(PrismaError::UnknownTxn(txn))?;
        st.participants.insert(actor);
        Ok(())
    }

    /// Participants registered so far.
    #[cfg(test)]
    pub(crate) fn participants_of(&self, txn: TxnId) -> Vec<ProcessId> {
        self.active
            .lock()
            .get(&txn)
            .map(|s| s.participants.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Two-phase commit. On any no-vote or participant failure the
    /// transaction is aborted everywhere and the error is returned.
    pub fn commit(&self, txn: TxnId) -> Result<CommitMetrics> {
        let state = self
            .active
            .lock()
            .remove(&txn)
            .ok_or(PrismaError::UnknownTxn(txn))?;
        let participants: Vec<ProcessId> = state.participants.iter().copied().collect();
        let mut metrics = CommitMetrics {
            participants: participants.len(),
            ..CommitMetrics::default()
        };

        // Read-only transactions skip 2PC entirely.
        if participants.is_empty() {
            self.coordinator_log.append(&LogPayload::Commit { txn });
            self.locks.release_all(txn);
            return Ok(metrics);
        }

        // Phase 1: prepare.
        let mailbox = self.runtime.external_mailbox();
        for (i, &p) in participants.iter().enumerate() {
            self.runtime.send(
                p,
                GdhMsg::Prepare {
                    txn,
                    reply_to: mailbox.id,
                    tag: i as u64,
                },
            )?;
            metrics.messages += 1;
        }
        let mut all_yes = true;
        // One deadline bounds the whole vote collection (each reply
        // narrows the remaining wait; see the same fix in gdh.rs).
        let started = Instant::now();
        let deadline = started + self.reply_timeout;
        let mut pending: HashMap<u64, ProcessId> = participants
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as u64, p))
            .collect();
        while !pending.is_empty() {
            match mailbox.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(GdhMsg::Vote { tag, result }) => {
                    pending.remove(&tag);
                    metrics.messages += 1;
                    match result {
                        Ok(ns) => metrics.disk_ns += ns,
                        Err(_) => all_yes = false,
                    }
                }
                Ok(_) => {} // stray non-vote traffic; keep waiting
                Err(_) => {
                    // A silent participant (crashed PE, dropped vote):
                    // abort everywhere and name exactly who never voted.
                    self.abort_participants(txn, &participants)?;
                    self.coordinator_log
                        .append_durable(&LogPayload::Abort { txn });
                    self.locks.release_all(txn);
                    return Err(Self::phase_timeout(
                        txn,
                        "prepare",
                        started,
                        &pending,
                        participants.len(),
                    ));
                }
            }
        }
        if !all_yes {
            self.abort_participants(txn, &participants)?;
            self.coordinator_log
                .append_durable(&LogPayload::Abort { txn });
            self.locks.release_all(txn);
            return Err(PrismaError::TxnAborted {
                txn,
                reason: "participant voted no in 2PC".into(),
            });
        }

        // Decision point: force the coordinator's commit record.
        let (_, ns) = self
            .coordinator_log
            .append_durable(&LogPayload::Commit { txn });
        metrics.disk_ns += ns;

        // Phase 2: commit everywhere.
        for (i, &p) in participants.iter().enumerate() {
            self.runtime.send(
                p,
                GdhMsg::Commit {
                    txn,
                    reply_to: mailbox.id,
                    tag: i as u64,
                },
            )?;
            metrics.messages += 1;
        }
        let started = Instant::now();
        let deadline = started + self.reply_timeout;
        let mut pending: HashMap<u64, ProcessId> = participants
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as u64, p))
            .collect();
        while !pending.is_empty() {
            match mailbox.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(GdhMsg::Ack { tag, result }) => {
                    pending.remove(&tag);
                    metrics.messages += 1;
                    if let Ok(ns) = result {
                        metrics.disk_ns += ns;
                    }
                }
                Ok(_) => {} // stray non-ack traffic; keep waiting
                Err(_) => {
                    // The decision is durable: the transaction IS
                    // committed, the silent participant applies it on
                    // recovery. Release locks and surface who hung.
                    self.locks.release_all(txn);
                    return Err(Self::phase_timeout(
                        txn,
                        "commit",
                        started,
                        &pending,
                        participants.len(),
                    ));
                }
            }
        }
        self.locks.release_all(txn);
        Ok(metrics)
    }

    /// Context-rich reply-timeout error for one 2PC phase: names the
    /// transaction, the phase, the elapsed time, and every still-silent
    /// participant by actor and tag — mirroring the executor's stream
    /// timeouts, so an operator can tell *which* PE hung, not just that
    /// something did.
    fn phase_timeout(
        txn: TxnId,
        phase: &str,
        started: Instant,
        pending: &HashMap<u64, ProcessId>,
        total: usize,
    ) -> PrismaError {
        let mut silent: Vec<String> = pending
            .iter()
            .map(|(tag, p)| format!("{p} (tag {tag})"))
            .collect();
        silent.sort();
        PrismaError::Execution(format!(
            "{txn}: 2PC {phase} reply timeout after {:.3}s — {} of {} participant(s) silent: [{}]",
            started.elapsed().as_secs_f64(),
            pending.len(),
            total,
            silent.join(", ")
        ))
    }

    /// Abort a transaction everywhere and release its locks.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let state = self.active.lock().remove(&txn);
        if let Some(state) = state {
            let participants: Vec<ProcessId> = state.participants.iter().copied().collect();
            self.abort_participants(txn, &participants)?;
        }
        self.coordinator_log.append(&LogPayload::Abort { txn });
        self.locks.release_all(txn);
        Ok(())
    }

    fn abort_participants(&self, txn: TxnId, participants: &[ProcessId]) -> Result<()> {
        if participants.is_empty() {
            return Ok(());
        }
        let mailbox = self.runtime.external_mailbox();
        let mut sent = 0;
        for (i, &p) in participants.iter().enumerate() {
            if self
                .runtime
                .send(
                    p,
                    GdhMsg::Abort {
                        txn,
                        reply_to: mailbox.id,
                        tag: i as u64,
                    },
                )
                .is_ok()
            {
                sent += 1;
            }
        }
        let deadline = Instant::now() + self.reply_timeout;
        for _ in 0..sent {
            let _ = mailbox.recv_timeout(deadline.saturating_duration_since(Instant::now()));
        }
        Ok(())
    }
}

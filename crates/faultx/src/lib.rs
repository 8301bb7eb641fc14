//! Deterministic fault injection for the PRISMA machine.
//!
//! Every failure scenario in this workspace is a *scripted, seeded* event,
//! never a flake: a [`FaultInjector`] carries an explicit list of
//! [`FaultSpec`]s (kill PE at its Nth delivered message, drop/duplicate/
//! delay the Nth chunk a PE ships, crash while handling a 2PC phase) plus
//! an optional randomized delay mode seeded from the `FAULT_SEED`
//! environment variable. The injector is consulted from two places:
//!
//! * the **OFM actor loop** (`prisma-gdh`) calls [`FaultInjector::on_message`]
//!   at the top of every `handle()`; a dead PE silently swallows the
//!   message (no replies, no sends), which is exactly how a crashed PE
//!   looks to the rest of the machine — reply deadlines fire and failover
//!   takes over;
//! * the **chunk shippers** call [`FaultInjector::chunk_fate`] before each
//!   stream send, and the network simulator (`prisma-multicomputer`)
//!   consults [`FaultInjector::is_dead`]/[`FaultInjector::packet_delay_ns`]
//!   per injected packet.
//!
//! The process-global injector ([`global`]) is inert unless `FAULT_SEED`
//! is set, in which case it randomly *delays* (reorders) stream chunks —
//! the one fault class the streaming protocol is required to mask
//! (`StreamReassembly` reorders by sequence number), so the whole test
//! suite can run under the matrix unchanged. Drops, duplicates and kills
//! are only ever scripted by individual tests.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use prisma_types::PeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which half of two-phase commit a crash point targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoPcPhase {
    /// Crash while handling `Prepare` (before voting).
    Prepare,
    /// Crash while handling `Commit` (after the coordinator decided).
    Commit,
}

/// One scripted fault. Message and chunk ordinals are 1-based and counted
/// per PE, so "kill PE 3 at message 7" is reproducible independent of what
/// the rest of the machine does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// PE stops processing at its `at`-th delivered message (that message
    /// and everything after it are swallowed).
    KillPeAtMessage { pe: PeId, at: u64 },
    /// The `nth` chunk PE ships is never sent.
    DropChunk { pe: PeId, nth: u64 },
    /// The `nth` chunk PE ships is sent twice.
    DuplicateChunk { pe: PeId, nth: u64 },
    /// The `nth` chunk PE ships is held back and sent after its successor
    /// (a reorder, which the stream protocol must mask).
    DelayChunk { pe: PeId, nth: u64 },
    /// The `nth` chunk PE ships has its encoded payload mangled in flight
    /// (bit damage on the interconnect). Every data chunk is a checksummed
    /// frame; the receiver must reject it with a protocol error, never
    /// mis-decode it.
    CorruptChunk { pe: PeId, nth: u64 },
    /// PE crashes while handling the given 2PC phase message.
    CrashDuring2pc { pe: PeId, phase: TwoPcPhase },
}

/// What the injector decided for one outgoing chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFate {
    /// Send normally.
    Deliver,
    /// Swallow the send.
    Drop,
    /// Send it twice.
    Duplicate,
    /// Hold it back; ship after the next chunk (reorder).
    Delay,
    /// Mangle the encoded payload before sending (wire bit damage).
    Corrupt,
}

#[derive(Default)]
struct Inner {
    rng: Option<StdRng>,
    /// Probability a chunk is delayed in randomized (suite-matrix) mode.
    delay_prob: f64,
    scripted: Vec<FaultSpec>,
    used: Vec<bool>,
    /// Messages delivered per PE (1-based ordinals).
    msgs: HashMap<usize, u64>,
    /// Chunks shipped per PE (1-based ordinals).
    chunks: HashMap<usize, u64>,
    dead: HashSet<usize>,
    events: Vec<String>,
}

impl Inner {
    fn fire(&mut self, i: usize, event: String) {
        self.used[i] = true;
        self.events.push(event);
    }
}

/// A deterministic fault injector, shareable across actors and threads.
///
/// Inert by default: every hook is a cheap no-op when no faults are
/// scripted and no random mode is armed, so production paths pay one
/// atomic load per message.
pub struct FaultInjector {
    /// Fast path: false means every hook returns "no fault" immediately.
    active: std::sync::atomic::AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector {
            active: std::sync::atomic::AtomicBool::new(false),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl FaultInjector {
    /// An injector that never injects anything.
    pub fn inert() -> Arc<FaultInjector> {
        Arc::new(FaultInjector::default())
    }

    /// An injector executing exactly `specs`, with ties broken by the
    /// seeded RNG (also used by randomized modes layered on top).
    pub fn scripted(seed: u64, specs: Vec<FaultSpec>) -> Arc<FaultInjector> {
        let inj = FaultInjector::default();
        {
            let mut inner = inj.inner.lock();
            inner.rng = Some(StdRng::seed_from_u64(seed));
            inner.used = vec![false; specs.len()];
            inner.scripted = specs;
        }
        inj.active
            .store(true, std::sync::atomic::Ordering::Release);
        Arc::new(inj)
    }

    /// An injector that randomly delays chunks with probability `p`,
    /// deterministically for the seed. Delays are the only fault class
    /// safe to arm suite-wide: the stream protocol masks reorders.
    pub fn delay_matrix(seed: u64, p: f64) -> Arc<FaultInjector> {
        let inj = FaultInjector::default();
        {
            let mut inner = inj.inner.lock();
            inner.rng = Some(StdRng::seed_from_u64(seed));
            inner.delay_prob = p.clamp(0.0, 1.0);
        }
        inj.active
            .store(true, std::sync::atomic::Ordering::Release);
        Arc::new(inj)
    }

    /// The injector the environment asks for: a chunk-delay matrix seeded
    /// from `FAULT_SEED` when set (CI runs the full suite once under a
    /// fixed seed), inert otherwise.
    pub fn from_env() -> Arc<FaultInjector> {
        match std::env::var("FAULT_SEED")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            Some(seed) => FaultInjector::delay_matrix(seed, 0.05),
            None => FaultInjector::inert(),
        }
    }

    /// True when any fault could ever fire (false for [`inert`](Self::inert)).
    pub fn is_active(&self) -> bool {
        self.active.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Messages delivered on `pe` so far (its next message is ordinal
    /// `messages_seen + 1`). Lets a test script "k messages from now"
    /// without counting its own setup traffic: the ordinal clock only
    /// ticks while the injector is active, so arm it at boot.
    pub fn messages_seen(&self, pe: PeId) -> u64 {
        self.inner
            .lock()
            .msgs
            .get(&pe.index())
            .copied()
            .unwrap_or(0)
    }

    /// Stream chunks shipped from `pe` so far (its next chunk is ordinal
    /// `chunks_seen + 1`) — the chunk-clock twin of
    /// [`messages_seen`](Self::messages_seen), for scripting chunk fates
    /// relative to traffic a test has already generated.
    pub fn chunks_seen(&self, pe: PeId) -> u64 {
        self.inner
            .lock()
            .chunks
            .get(&pe.index())
            .copied()
            .unwrap_or(0)
    }

    /// Append scripted faults at runtime, arming the injector if it was
    /// inert. Ordinals stay absolute — combine with
    /// [`messages_seen`](Self::messages_seen) to fire relative to the
    /// present (e.g. kill a PE three messages into the *next* query).
    pub fn script(&self, specs: Vec<FaultSpec>) {
        {
            let mut inner = self.inner.lock();
            inner.used.extend(std::iter::repeat_n(false, specs.len()));
            inner.scripted.extend(specs);
        }
        self.active
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Mark a PE dead immediately (manual kill, used by tests and the
    /// scripted kill/crash specs internally).
    pub fn kill_pe(&self, pe: PeId) {
        self.active
            .store(true, std::sync::atomic::Ordering::Release);
        let mut inner = self.inner.lock();
        if inner.dead.insert(pe.index()) {
            inner.events.push(format!("kill {pe}"));
        }
    }

    /// True when `pe` has been killed.
    pub fn is_dead(&self, pe: PeId) -> bool {
        if !self.is_active() {
            return false;
        }
        self.inner.lock().dead.contains(&pe.index())
    }

    /// Called by an actor loop for every message delivered on `pe`.
    /// Returns `true` when the PE is dead (now or already) and the message
    /// must be swallowed without processing.
    pub fn on_message(&self, pe: PeId) -> bool {
        if !self.is_active() {
            return false;
        }
        let mut inner = self.inner.lock();
        let n = inner.msgs.entry(pe.index()).or_insert(0);
        *n += 1;
        let n = *n;
        for i in 0..inner.scripted.len() {
            if inner.used[i] {
                continue;
            }
            if let FaultSpec::KillPeAtMessage { pe: p, at } = inner.scripted[i] {
                if p == pe && n >= at {
                    inner.fire(i, format!("kill {pe} at message {n}"));
                    inner.dead.insert(pe.index());
                }
            }
        }
        inner.dead.contains(&pe.index())
    }

    /// Called by chunk shippers before each stream send from `pe`.
    pub fn chunk_fate(&self, pe: PeId) -> ChunkFate {
        if !self.is_active() {
            return ChunkFate::Deliver;
        }
        let mut inner = self.inner.lock();
        let n = inner.chunks.entry(pe.index()).or_insert(0);
        *n += 1;
        let n = *n;
        for i in 0..inner.scripted.len() {
            if inner.used[i] {
                continue;
            }
            let fate = match inner.scripted[i] {
                FaultSpec::DropChunk { pe: p, nth } if p == pe && nth == n => Some(ChunkFate::Drop),
                FaultSpec::DuplicateChunk { pe: p, nth } if p == pe && nth == n => {
                    Some(ChunkFate::Duplicate)
                }
                FaultSpec::DelayChunk { pe: p, nth } if p == pe && nth == n => {
                    Some(ChunkFate::Delay)
                }
                FaultSpec::CorruptChunk { pe: p, nth } if p == pe && nth == n => {
                    Some(ChunkFate::Corrupt)
                }
                _ => None,
            };
            if let Some(fate) = fate {
                inner.fire(i, format!("{fate:?} chunk {n} from {pe}"));
                return fate;
            }
        }
        if inner.delay_prob > 0.0 {
            let p = inner.delay_prob;
            if let Some(rng) = inner.rng.as_mut() {
                if rng.gen_bool(p) {
                    return ChunkFate::Delay;
                }
            }
        }
        ChunkFate::Deliver
    }

    /// Called by an OFM actor when it is about to handle a 2PC phase
    /// message. Returns `true` when the PE crashes instead (the message is
    /// swallowed and the PE is dead from here on).
    pub fn on_2pc(&self, pe: PeId, phase: TwoPcPhase) -> bool {
        if !self.is_active() {
            return false;
        }
        let mut inner = self.inner.lock();
        for i in 0..inner.scripted.len() {
            if inner.used[i] {
                continue;
            }
            if let FaultSpec::CrashDuring2pc { pe: p, phase: ph } = inner.scripted[i] {
                if p == pe && ph == phase {
                    inner.fire(i, format!("crash {pe} during 2PC {phase:?}"));
                    inner.dead.insert(pe.index());
                    return true;
                }
            }
        }
        inner.dead.contains(&pe.index())
    }

    /// Extra injected network latency for a packet from `src`, in ns
    /// (randomized delay mode only; scripted chunk faults act at the
    /// shipper, not the packet level).
    pub fn packet_delay_ns(&self, _src: PeId, base_ns: u64) -> u64 {
        if !self.is_active() {
            return 0;
        }
        let mut inner = self.inner.lock();
        if inner.delay_prob > 0.0 {
            let p = inner.delay_prob;
            if let Some(rng) = inner.rng.as_mut() {
                if rng.gen_bool(p) {
                    return base_ns;
                }
            }
        }
        0
    }

    /// The audit log of every fault that actually fired, in order.
    pub fn events(&self) -> Vec<String> {
        self.inner.lock().events.clone()
    }
}

/// The process-global injector, built once from the environment
/// ([`FaultInjector::from_env`]). Actors constructed without an explicit
/// injector use this one, so setting `FAULT_SEED` arms the whole process.
pub fn global() -> &'static Arc<FaultInjector> {
    static GLOBAL: OnceLock<Arc<FaultInjector>> = OnceLock::new();
    GLOBAL.get_or_init(FaultInjector::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_injector_never_fires() {
        let inj = FaultInjector::inert();
        assert!(!inj.is_active());
        for _ in 0..100 {
            assert!(!inj.on_message(PeId(1)));
            assert_eq!(inj.chunk_fate(PeId(1)), ChunkFate::Deliver);
            assert!(!inj.on_2pc(PeId(1), TwoPcPhase::Commit));
        }
        assert!(inj.events().is_empty());
    }

    #[test]
    fn kill_at_message_n_swallows_from_n_on() {
        let inj = FaultInjector::scripted(
            7,
            vec![FaultSpec::KillPeAtMessage {
                pe: PeId(2),
                at: 3,
            }],
        );
        assert!(!inj.on_message(PeId(2))); // 1
        assert!(!inj.on_message(PeId(2))); // 2
        assert!(!inj.on_message(PeId(1))); // other PE unaffected
        assert!(inj.on_message(PeId(2))); // 3: dead
        assert!(inj.on_message(PeId(2))); // stays dead
        assert!(inj.is_dead(PeId(2)));
        assert!(!inj.is_dead(PeId(1)));
        assert_eq!(inj.events().len(), 1);
    }

    #[test]
    fn scripted_chunk_fates_fire_once_at_their_ordinal() {
        let inj = FaultInjector::scripted(
            7,
            vec![
                FaultSpec::DropChunk { pe: PeId(0), nth: 2 },
                FaultSpec::DuplicateChunk { pe: PeId(0), nth: 3 },
                FaultSpec::DelayChunk { pe: PeId(1), nth: 1 },
                FaultSpec::CorruptChunk { pe: PeId(0), nth: 4 },
            ],
        );
        assert_eq!(inj.chunk_fate(PeId(0)), ChunkFate::Deliver);
        assert_eq!(inj.chunk_fate(PeId(0)), ChunkFate::Drop);
        assert_eq!(inj.chunk_fate(PeId(0)), ChunkFate::Duplicate);
        assert_eq!(inj.chunk_fate(PeId(0)), ChunkFate::Corrupt);
        assert_eq!(inj.chunk_fate(PeId(0)), ChunkFate::Deliver);
        assert_eq!(inj.chunk_fate(PeId(1)), ChunkFate::Delay);
        assert_eq!(inj.chunk_fate(PeId(1)), ChunkFate::Deliver);
        assert_eq!(inj.events().len(), 4);
    }

    #[test]
    fn crash_during_2pc_kills_the_pe() {
        let inj = FaultInjector::scripted(
            7,
            vec![FaultSpec::CrashDuring2pc {
                pe: PeId(3),
                phase: TwoPcPhase::Commit,
            }],
        );
        assert!(!inj.on_2pc(PeId(3), TwoPcPhase::Prepare));
        assert!(inj.on_2pc(PeId(3), TwoPcPhase::Commit));
        assert!(inj.is_dead(PeId(3)));
        // Dead PEs swallow subsequent messages too.
        assert!(inj.on_message(PeId(3)));
    }

    #[test]
    fn delay_matrix_is_deterministic_for_a_seed() {
        let a = FaultInjector::delay_matrix(42, 0.3);
        let b = FaultInjector::delay_matrix(42, 0.3);
        let fates_a: Vec<ChunkFate> = (0..200).map(|_| a.chunk_fate(PeId(0))).collect();
        let fates_b: Vec<ChunkFate> = (0..200).map(|_| b.chunk_fate(PeId(0))).collect();
        assert_eq!(fates_a, fates_b);
        assert!(fates_a.contains(&ChunkFate::Delay));
        assert!(fates_a.contains(&ChunkFate::Deliver));
        // Delays never drop or duplicate.
        assert!(fates_a
            .iter()
            .all(|f| matches!(f, ChunkFate::Delay | ChunkFate::Deliver)));
    }

    #[test]
    fn runtime_scripting_fires_relative_to_messages_seen() {
        let inj = FaultInjector::scripted(7, vec![]);
        for _ in 0..5 {
            assert!(!inj.on_message(PeId(1)));
        }
        assert_eq!(inj.messages_seen(PeId(1)), 5);
        inj.script(vec![FaultSpec::KillPeAtMessage {
            pe: PeId(1),
            at: inj.messages_seen(PeId(1)) + 2,
        }]);
        assert!(!inj.on_message(PeId(1))); // 6
        assert!(inj.on_message(PeId(1))); // 7: dead
        assert!(inj.is_dead(PeId(1)));
    }

    #[test]
    fn manual_kill_arms_an_inert_injector() {
        let inj = FaultInjector::inert();
        inj.kill_pe(PeId(5));
        assert!(inj.is_active());
        assert!(inj.is_dead(PeId(5)));
        assert!(inj.on_message(PeId(5)));
    }
}

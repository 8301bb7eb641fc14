//! The concurrency-control unit: strict two-phase locking with wait-for
//! graph deadlock detection.
//!
//! Paper §2.2: "evaluation of several queries and updates can be done in
//! parallel, except for accesses to the same copy of base fragments of the
//! database" — shared locks let readers proceed concurrently; exclusive
//! locks serialize updates to the same relation.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use prisma_types::{PrismaError, Result, TxnId};

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (readers).
    Shared,
    /// Exclusive (writers).
    Exclusive,
}

#[derive(Debug, Default)]
struct ResourceState {
    holders: HashMap<TxnId, LockMode>,
    /// FIFO wait queue: `(txn, mode)`.
    waiters: VecDeque<(TxnId, LockMode)>,
}

impl ResourceState {
    fn compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self
                .holders
                .iter()
                .all(|(t, m)| *t == txn || *m == LockMode::Shared),
            LockMode::Exclusive => self.holders.keys().all(|t| *t == txn),
        }
    }
}

#[derive(Debug, Default)]
struct LmState {
    resources: HashMap<String, ResourceState>,
    /// txn → resources it holds (for release-all).
    held: HashMap<TxnId, HashSet<String>>,
    /// txn → txns it waits for (wait-for graph edges).
    waits_for: HashMap<TxnId, HashSet<TxnId>>,
    /// Transactions chosen as deadlock victims; their pending/future
    /// acquires fail until released.
    victims: HashSet<TxnId>,
}

impl LmState {
    /// True if adding `waiter → holders` edges creates a cycle through
    /// `waiter`.
    fn would_deadlock(&self, waiter: TxnId) -> bool {
        // DFS from waiter over waits_for.
        let mut stack: Vec<TxnId> = self
            .waits_for
            .get(&waiter)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == waiter {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = self.waits_for.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }
}

/// Strict-2PL lock manager at relation granularity.
pub struct LockManager {
    state: Arc<Mutex<LmState>>,
    wakeup: Arc<Condvar>,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new()
    }
}

impl LockManager {
    /// Fresh manager.
    pub fn new() -> Self {
        LockManager {
            state: Arc::new(Mutex::new(LmState::default())),
            wakeup: Arc::new(Condvar::new()),
        }
    }

    /// Acquire `mode` on `resource` for `txn`, blocking until granted.
    /// If blocking would close a cycle in the wait-for graph, the
    /// *requesting* transaction is chosen as the victim and
    /// [`PrismaError::Deadlock`] is returned; the caller must abort it.
    pub fn acquire(&self, txn: TxnId, resource: &str, mode: LockMode) -> Result<()> {
        let mut st = self.state.lock();
        if st.victims.contains(&txn) {
            return Err(PrismaError::Deadlock(txn));
        }
        // Fast path / lock upgrade.
        {
            let res = st.resources.entry(resource.to_owned()).or_default();
            if let Some(&held) = res.holders.get(&txn) {
                if held == LockMode::Exclusive || mode == LockMode::Shared {
                    return Ok(()); // already sufficient
                }
                // Upgrade S→X: allowed when sole holder and nothing queued
                // ahead that conflicts.
                if res.holders.len() == 1 && res.compatible(txn, LockMode::Exclusive) {
                    res.holders.insert(txn, LockMode::Exclusive);
                    return Ok(());
                }
            } else if res.waiters.is_empty() && res.compatible(txn, mode) {
                res.holders.insert(txn, mode);
                st.held.entry(txn).or_default().insert(resource.to_owned());
                return Ok(());
            }
        }
        // Must wait: install wait-for edges and check for a cycle.
        let holders: Vec<TxnId> = st.resources[resource]
            .holders
            .keys()
            .copied()
            .filter(|t| *t != txn)
            .collect();
        st.waits_for.entry(txn).or_default().extend(holders);
        if st.would_deadlock(txn) {
            st.waits_for.remove(&txn);
            st.victims.insert(txn);
            return Err(PrismaError::Deadlock(txn));
        }
        st.resources
            .get_mut(resource)
            .expect("created above")
            .waiters
            .push_back((txn, mode));

        loop {
            self.wakeup.wait(&mut st);
            if st.victims.contains(&txn) {
                // Chosen as a victim while waiting (by another waiter's
                // cycle detection passing through us? we only victimize
                // requesters, but stay defensive).
                let res = st.resources.get_mut(resource).expect("exists");
                res.waiters.retain(|(t, _)| *t != txn);
                st.waits_for.remove(&txn);
                return Err(PrismaError::Deadlock(txn));
            }
            let res = st.resources.get_mut(resource).expect("exists");
            // Grant in FIFO order: only the head of the queue may enter.
            if let Some(&(head, head_mode)) = res.waiters.front() {
                if head == txn && res.compatible(txn, head_mode) {
                    res.waiters.pop_front();
                    res.holders.insert(txn, head_mode);
                    st.waits_for.remove(&txn);
                    st.held.entry(txn).or_default().insert(resource.to_owned());
                    // Shared grants can cascade to further shared waiters.
                    self.wakeup.notify_all();
                    return Ok(());
                }
                // Allow shared waiters behind a shared head to pile in.
                if head != txn
                    && head_mode == LockMode::Shared
                    && res
                        .waiters
                        .iter()
                        .take_while(|(t, m)| *t != txn && *m == LockMode::Shared)
                        .count()
                        > 0
                {
                    // Handled when the head is granted; keep waiting.
                }
            }
        }
    }

    /// Release everything `txn` holds and clear its victim flag.
    pub fn release_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        st.victims.remove(&txn);
        st.waits_for.remove(&txn);
        if let Some(resources) = st.held.remove(&txn) {
            for r in resources {
                if let Some(res) = st.resources.get_mut(&r) {
                    res.holders.remove(&txn);
                    res.waiters.retain(|(t, _)| *t != txn);
                }
            }
        }
        // Also drop any queued waits (aborting while enqueued).
        for res in st.resources.values_mut() {
            res.waiters.retain(|(t, _)| *t != txn);
            res.holders.remove(&txn);
        }
        self.wakeup.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    impl LockManager {
        /// Locks currently held by `txn`.
        fn held_by(&self, txn: TxnId) -> Vec<String> {
            let st = self.state.lock();
            let mut v: Vec<String> = st
                .held
                .get(&txn)
                .map(|s| s.iter().cloned().collect())
                .unwrap_or_default();
            v.sort();
            v
        }
    }

    #[test]
    fn shared_locks_coexist_exclusive_excludes() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), "r", LockMode::Shared).unwrap();
        lm.acquire(TxnId(2), "r", LockMode::Shared).unwrap();
        assert_eq!(lm.held_by(TxnId(1)), vec!["r".to_owned()]);
        lm.release_all(TxnId(1));
        lm.release_all(TxnId(2));
        lm.acquire(TxnId(3), "r", LockMode::Exclusive).unwrap();
        // A second exclusive from the same txn is idempotent.
        lm.acquire(TxnId(3), "r", LockMode::Exclusive).unwrap();
        lm.release_all(TxnId(3));
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), "r", LockMode::Shared).unwrap();
        lm.acquire(TxnId(1), "r", LockMode::Exclusive).unwrap();
        lm.release_all(TxnId(1));
    }

    #[test]
    fn blocked_writer_proceeds_after_release() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(TxnId(1), "r", LockMode::Shared).unwrap();
        let lm2 = lm.clone();
        let acquired = Arc::new(AtomicUsize::new(0));
        let acquired2 = acquired.clone();
        let h = std::thread::spawn(move || {
            lm2.acquire(TxnId(2), "r", LockMode::Exclusive).unwrap();
            acquired2.store(1, Ordering::SeqCst);
            lm2.release_all(TxnId(2));
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(acquired.load(Ordering::SeqCst), 0, "writer must wait");
        lm.release_all(TxnId(1));
        h.join().unwrap();
        assert_eq!(acquired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deadlock_detected_and_victim_chosen() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(TxnId(1), "a", LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = std::thread::spawn(move || {
            lm2.acquire(TxnId(2), "b", LockMode::Exclusive).unwrap();
            // T2 waits for a (held by T1).
            // Either T2 wins `a` after T1's deadlock-abort, or T2 itself
            // was the victim (timing-dependent); both are valid outcomes,
            // and both end with T2's locks released.
            let _ = lm2.acquire(TxnId(2), "a", LockMode::Exclusive);
            lm2.release_all(TxnId(2));
        });
        std::thread::sleep(Duration::from_millis(50));
        // T1 now requests b, closing the cycle: T1 must be victimized.
        let r = lm.acquire(TxnId(1), "b", LockMode::Exclusive);
        assert!(matches!(r, Err(PrismaError::Deadlock(TxnId(1)))));
        lm.release_all(TxnId(1));
        h.join().unwrap();
    }

    #[test]
    fn victim_flag_cleared_by_release() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(TxnId(1), "a", LockMode::Exclusive).unwrap();
        // Force-victimize T2 via a synthetic cycle: T2 waits for T1...
        let lm2 = lm.clone();
        let h = std::thread::spawn(move || {
            let _ = lm2.acquire(TxnId(2), "a", LockMode::Exclusive);
            lm2.release_all(TxnId(2));
        });
        std::thread::sleep(Duration::from_millis(20));
        lm.release_all(TxnId(1));
        h.join().unwrap();
        // T2 released; it can lock again.
        lm.acquire(TxnId(2), "a", LockMode::Shared).unwrap();
        lm.release_all(TxnId(2));
    }

    #[test]
    fn many_concurrent_readers_one_writer_stress() {
        let lm = Arc::new(LockManager::new());
        let mut handles = Vec::new();
        for i in 0..8 {
            let lm = lm.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..50 {
                    let txn = TxnId(100 + i);
                    let mode = if (i + round) % 4 == 0 {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    match lm.acquire(txn, "hot", mode) {
                        Ok(()) => lm.release_all(txn),
                        Err(_) => lm.release_all(txn), // deadlock victim: retry next round
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}

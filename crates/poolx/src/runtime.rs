//! The actor runtime: dynamically created processes, message passing only,
//! explicit PE placement.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use prisma_types::{PeId, PrismaError, ProcessId, Result};

use crate::ledger::TrafficLedger;

/// The PE the supervisor (GDH) and all external mailboxes are considered
/// to live on; client↔actor messages are charged from/to here.
pub const COORDINATOR_PE: PeId = PeId(0);

/// Messages exchanged between processes. `wire_bytes` is the payload size
/// used for communication metering (the simulated interconnect moves
/// 256-bit packets; the ledger segments accordingly).
pub trait WireMessage: Send + 'static {
    /// Bytes this message occupies on the wire.
    fn wire_bytes(&self) -> usize;
}

/// A POOL-X-style process: reacts to one message at a time; all state is
/// private (no shared memory, per the paper).
pub trait Process<M: WireMessage>: Send {
    /// Handle one message. Outgoing sends and spawns go through `ctx`.
    fn handle(&mut self, msg: M, ctx: &mut Ctx<'_, M>);
}

enum Envelope<M> {
    Deliver { to: ProcessId, msg: M },
    Spawn { id: ProcessId, proc: Box<dyn Process<M>> },
    Kill { id: ProcessId },
    Shutdown,
}

struct RuntimeInner<M: WireMessage> {
    pe_senders: Vec<Sender<Envelope<M>>>,
    placement: Mutex<HashMap<ProcessId, PeId>>,
    externals: Mutex<HashMap<ProcessId, Sender<M>>>,
    next_pid: AtomicU32,
    ledger: Arc<TrafficLedger>,
    dropped: AtomicU64,
}

impl<M: WireMessage> RuntimeInner<M> {
    fn alloc_pid(&self) -> ProcessId {
        ProcessId(self.next_pid.fetch_add(1, Ordering::Relaxed))
    }

    fn route(&self, from: PeId, to: ProcessId, msg: M) -> Result<()> {
        // External mailboxes first. They live on the coordinator PE (the
        // GDH's own processing element), so replies from remote OFMs are
        // real interconnect traffic and are metered as such. A dropped
        // mailbox unregisters itself, so senders fail fast instead of
        // streaming into a void (and nothing phantom is metered) — an OFM
        // mid-stream after a coordinator timeout abandons the rest of its
        // result on the first failed send.
        let external = self.externals.lock().get(&to).cloned();
        if let Some(tx) = external {
            // Metered before the message becomes visible, so a client that
            // has received it reads a ledger that counts it. (A mailbox
            // dropped while this send is in flight is charged for it, as
            // an interconnect charges a packet its receiver discards.)
            self.ledger.record(from, COORDINATOR_PE, msg.wire_bytes());
            return tx.send(msg).map_err(|_| {
                PrismaError::ProcessUnreachable(format!("{to} mailbox was dropped"))
            });
        }
        let Some(&pe) = self.placement.lock().get(&to) else {
            return Err(PrismaError::ProcessUnreachable(format!(
                "{to} is not a live process"
            )));
        };
        self.ledger.record(from, pe, msg.wire_bytes());
        self.pe_senders[pe.index()]
            .send(Envelope::Deliver { to, msg })
            .map_err(|_| PrismaError::ProcessUnreachable(format!("{pe} worker is down")))
    }

    fn spawn(&self, pe: PeId, proc: Box<dyn Process<M>>) -> Result<ProcessId> {
        if pe.index() >= self.pe_senders.len() {
            return Err(PrismaError::Config(format!(
                "{pe} out of range ({} PEs)",
                self.pe_senders.len()
            )));
        }
        let id = self.alloc_pid();
        self.placement.lock().insert(id, pe);
        self.pe_senders[pe.index()]
            .send(Envelope::Spawn { id, proc })
            .map_err(|_| PrismaError::ProcessUnreachable(format!("{pe} worker is down")))?;
        Ok(id)
    }
}

/// Context handed to [`Process::handle`]: the process's identity plus the
/// messaging/spawning capabilities of the runtime.
pub struct Ctx<'a, M: WireMessage> {
    inner: &'a Arc<RuntimeInner<M>>,
    /// This process.
    pub self_id: ProcessId,
    /// The PE this process is allocated on.
    pub self_pe: PeId,
}

impl<M: WireMessage> Ctx<'_, M> {
    /// Send `msg` to another process (or external mailbox). Charged to the
    /// communication ledger when it crosses PEs.
    pub fn send(&mut self, to: ProcessId, msg: M) -> Result<()> {
        self.inner.route(self.self_pe, to, msg)
    }

    /// Dynamically create a process on an explicitly chosen PE — the
    /// POOL-X allocation primitive.
    pub fn spawn(&mut self, pe: PeId, proc: Box<dyn Process<M>>) -> Result<ProcessId> {
        self.inner.spawn(pe, proc)
    }

    /// Terminate a process (its mailbox drains, then it is dropped).
    pub fn kill(&mut self, id: ProcessId) {
        let pe = self.inner.placement.lock().remove(&id);
        if let Some(pe) = pe {
            let _ = self.inner.pe_senders[pe.index()].send(Envelope::Kill { id });
        }
    }
}

/// Receiving end for a non-process client (e.g. the machine facade blocks
/// here for query results).
///
/// Dropping the mailbox unregisters its address: later sends to it fail
/// with `ProcessUnreachable` instead of accumulating into a void, which
/// is how an OFM streaming a result learns the coordinator gave up (e.g.
/// after a reply timeout) and abandons the rest of the stream.
pub struct ExternalMailbox<M: WireMessage> {
    /// Address processes reply to.
    pub id: ProcessId,
    rx: Receiver<M>,
    inner: Weak<RuntimeInner<M>>,
}

impl<M: WireMessage> ExternalMailbox<M> {
    /// Blocking receive.
    pub fn recv(&self) -> Result<M> {
        self.rx
            .recv()
            .map_err(|_| PrismaError::ProcessUnreachable("runtime shut down".into()))
    }

    /// Receive with timeout.
    pub fn recv_timeout(&self, d: Duration) -> Result<M> {
        self.rx
            .recv_timeout(d)
            .map_err(|_| PrismaError::ProcessUnreachable("timed out waiting for reply".into()))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<M> {
        self.rx.try_recv().ok()
    }
}

impl<M: WireMessage> Drop for ExternalMailbox<M> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.upgrade() {
            inner.externals.lock().remove(&self.id);
        }
    }
}

/// The POOL-X runtime over `n` simulated PEs, one worker thread each.
pub struct PoolRuntime<M: WireMessage> {
    inner: Arc<RuntimeInner<M>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<M: WireMessage> PoolRuntime<M> {
    /// Start workers for `num_pes` PEs, metering traffic on `ledger`.
    pub fn start(num_pes: usize, ledger: Arc<TrafficLedger>) -> Arc<PoolRuntime<M>> {
        let mut senders = Vec::with_capacity(num_pes);
        let mut receivers = Vec::with_capacity(num_pes);
        for _ in 0..num_pes {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let inner = Arc::new(RuntimeInner {
            pe_senders: senders,
            placement: Mutex::new(HashMap::new()),
            externals: Mutex::new(HashMap::new()),
            next_pid: AtomicU32::new(0),
            ledger,
            dropped: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(num_pes);
        for (pe, rx) in receivers.into_iter().enumerate() {
            let inner = inner.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(PeId::from(pe), rx, inner)
            }));
        }
        Arc::new(PoolRuntime {
            inner,
            workers: Mutex::new(workers),
        })
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.inner.pe_senders.len()
    }

    /// The communication ledger.
    pub fn ledger(&self) -> &Arc<TrafficLedger> {
        &self.inner.ledger
    }

    /// Spawn a process on an explicit PE.
    pub fn spawn(&self, pe: PeId, proc: Box<dyn Process<M>>) -> Result<ProcessId> {
        self.inner.spawn(pe, proc)
    }

    /// Send from outside the process world (the supervisor/client, which
    /// lives on [`COORDINATOR_PE`]); metered like any other message.
    pub fn send(&self, to: ProcessId, msg: M) -> Result<()> {
        self.inner.route(COORDINATOR_PE, to, msg)
    }

    /// Register an external mailbox; processes can `send` to its id until
    /// the mailbox is dropped.
    pub fn external_mailbox(&self) -> ExternalMailbox<M> {
        let id = self.inner.alloc_pid();
        let (tx, rx) = unbounded();
        self.inner.externals.lock().insert(id, tx);
        ExternalMailbox {
            id,
            rx,
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Where a process lives (None once killed).
    pub fn placement_of(&self, id: ProcessId) -> Option<PeId> {
        self.inner.placement.lock().get(&id).copied()
    }

    /// Live process count per PE.
    pub fn processes_per_pe(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_pes()];
        for &pe in self.inner.placement.lock().values() {
            counts[pe.index()] += 1;
        }
        counts
    }

    /// Messages dropped because their target process was dead.
    pub fn dropped_messages(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Kill one process from outside the process world (fault injection,
    /// supervision). Subsequent messages to it count as dropped.
    pub fn kill(&self, id: ProcessId) {
        let pe = self.inner.placement.lock().remove(&id);
        if let Some(pe) = pe {
            let _ = self.inner.pe_senders[pe.index()].send(Envelope::Kill { id });
        }
    }

    /// Kill every process hosted on `pe` — the hard-crash primitive the
    /// fault injector uses to take a whole PE down mid-query. Returns the
    /// ids of the processes that died.
    pub fn kill_pe(&self, pe: PeId) -> Vec<ProcessId> {
        let mut placement = self.inner.placement.lock();
        let victims: Vec<ProcessId> = placement
            .iter()
            .filter_map(|(&id, &p)| (p == pe).then_some(id))
            .collect();
        for &id in &victims {
            placement.remove(&id);
        }
        drop(placement);
        for &id in &victims {
            let _ = self.inner.pe_senders[pe.index()].send(Envelope::Kill { id });
        }
        victims
    }

    /// Stop all workers after their mailboxes drain.
    pub fn shutdown(&self) {
        for tx in &self.inner.pe_senders {
            let _ = tx.send(Envelope::Shutdown);
        }
        let mut workers = self.workers.lock();
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<M: WireMessage> Drop for PoolRuntime<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<M: WireMessage>(
    pe: PeId,
    rx: Receiver<Envelope<M>>,
    inner: Arc<RuntimeInner<M>>,
) {
    let mut procs: HashMap<ProcessId, Box<dyn Process<M>>> = HashMap::new();
    while let Ok(env) = rx.recv() {
        match env {
            Envelope::Spawn { id, proc } => {
                procs.insert(id, proc);
            }
            Envelope::Kill { id } => {
                procs.remove(&id);
            }
            Envelope::Deliver { to, msg } => {
                // Take the process out so its handler can freely use the
                // runtime (sends to self just queue behind this message).
                if let Some(mut p) = procs.remove(&to) {
                    let mut ctx = Ctx {
                        inner: &inner,
                        self_id: to,
                        self_pe: pe,
                    };
                    p.handle(msg, &mut ctx);
                    // Re-insert unless the process killed itself.
                    if inner.placement.lock().contains_key(&to) {
                        procs.insert(to, p);
                    }
                } else {
                    inner.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            Envelope::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_multicomputer::CostModel;
    use prisma_types::MachineConfig;

    #[derive(Debug)]
    enum Msg {
        Ping { reply_to: ProcessId, n: u64 },
        Pong(u64),
        FanOut { reply_to: ProcessId, children: usize },
        Done,
    }

    impl WireMessage for Msg {
        fn wire_bytes(&self) -> usize {
            64
        }
    }

    struct Echo;
    impl Process<Msg> for Echo {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Ping { reply_to, n } = msg {
                ctx.send(reply_to, Msg::Pong(n * 2)).unwrap();
            }
        }
    }

    fn runtime(pes: usize) -> Arc<PoolRuntime<Msg>> {
        let cfg = MachineConfig::paper_prototype().with_pes(pes);
        let ledger = Arc::new(TrafficLedger::new(CostModel::new(&cfg).unwrap()));
        PoolRuntime::start(pes, ledger)
    }

    #[test]
    fn request_reply_roundtrip() {
        let rt = runtime(4);
        let mb = rt.external_mailbox();
        let echo = rt.spawn(PeId(2), Box::new(Echo)).unwrap();
        rt.send(
            echo,
            Msg::Ping {
                reply_to: mb.id,
                n: 21,
            },
        )
        .unwrap();
        match mb.recv_timeout(Duration::from_secs(5)).unwrap() {
            Msg::Pong(v) => assert_eq!(v, 42),
            other => panic!("unexpected {other:?}"),
        }
        rt.shutdown();
    }

    #[test]
    fn explicit_placement_is_observable() {
        let rt = runtime(4);
        let a = rt.spawn(PeId(1), Box::new(Echo)).unwrap();
        let b = rt.spawn(PeId(3), Box::new(Echo)).unwrap();
        assert_eq!(rt.placement_of(a), Some(PeId(1)));
        assert_eq!(rt.placement_of(b), Some(PeId(3)));
        let per = rt.processes_per_pe();
        assert_eq!(per[1], 1);
        assert_eq!(per[3], 1);
        rt.shutdown();
    }

    struct Spawner;
    impl Process<Msg> for Spawner {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            if let Msg::FanOut { reply_to, children } = msg {
                // Dynamically create children across PEs, POOL-X style.
                for i in 0..children {
                    let pe = PeId::from(i % 4);
                    let child = ctx.spawn(pe, Box::new(Echo)).unwrap();
                    ctx.send(
                        child,
                        Msg::Ping {
                            reply_to,
                            n: i as u64,
                        },
                    )
                    .unwrap();
                }
            }
        }
    }

    #[test]
    fn processes_spawn_processes() {
        let rt = runtime(4);
        let mb = rt.external_mailbox();
        let s = rt.spawn(PeId(0), Box::new(Spawner)).unwrap();
        rt.send(
            s,
            Msg::FanOut {
                reply_to: mb.id,
                children: 8,
            },
        )
        .unwrap();
        let mut got = 0;
        for _ in 0..8 {
            match mb.recv_timeout(Duration::from_secs(5)).unwrap() {
                Msg::Pong(_) => got += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(got, 8);
        rt.shutdown();
    }

    #[test]
    fn kill_pe_takes_down_every_hosted_process() {
        let rt = runtime(4);
        let mb = rt.external_mailbox();
        let a = rt.spawn(PeId(2), Box::new(Echo)).unwrap();
        let b = rt.spawn(PeId(2), Box::new(Echo)).unwrap();
        let survivor = rt.spawn(PeId(1), Box::new(Echo)).unwrap();

        let mut victims = rt.kill_pe(PeId(2));
        victims.sort();
        let mut expect = vec![a, b];
        expect.sort();
        assert_eq!(victims, expect);
        assert_eq!(rt.placement_of(a), None);
        assert_eq!(rt.placement_of(b), None);
        assert_eq!(rt.placement_of(survivor), Some(PeId(1)));

        // Messages to the dead PE's processes bounce; the survivor still
        // answers.
        assert!(rt.send(a, Msg::Ping { reply_to: mb.id, n: 1 }).is_err());
        rt.send(survivor, Msg::Ping { reply_to: mb.id, n: 21 })
            .unwrap();
        match mb.recv_timeout(Duration::from_secs(5)).unwrap() {
            Msg::Pong(v) => assert_eq!(v, 42),
            other => panic!("unexpected {other:?}"),
        }
        // Killing an empty PE is a no-op.
        assert!(rt.kill_pe(PeId(3)).is_empty());
        rt.shutdown();
    }

    #[test]
    fn cross_pe_messages_are_metered() {
        let rt = runtime(4);
        let mb = rt.external_mailbox();
        let echo = rt.spawn(PeId(3), Box::new(Echo)).unwrap();
        rt.ledger().reset();
        rt.send(
            echo,
            Msg::Ping {
                reply_to: mb.id,
                n: 1,
            },
        )
        .unwrap();
        mb.recv_timeout(Duration::from_secs(5)).unwrap();
        // Client send goes coordinator(pe0)→pe3, the reply pe3→pe0: both
        // cross the interconnect and are metered.
        assert_eq!(rt.ledger().remote_messages(), 2);
        rt.ledger().reset();

        // Process-to-process across PEs IS metered.
        struct Fwd {
            peer: ProcessId,
        }
        impl Process<Msg> for Fwd {
            fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
                if let Msg::Ping { reply_to, n } = msg {
                    ctx.send(
                        self.peer,
                        Msg::Ping {
                            reply_to,
                            n,
                        },
                    )
                    .unwrap();
                }
            }
        }
        let far_echo = rt.spawn(PeId(2), Box::new(Echo)).unwrap();
        let fwd = rt.spawn(PeId(0), Box::new(Fwd { peer: far_echo })).unwrap();
        rt.ledger().reset();
        rt.send(
            fwd,
            Msg::Ping {
                reply_to: mb.id,
                n: 5,
            },
        )
        .unwrap();
        mb.recv_timeout(Duration::from_secs(5)).unwrap();
        // pe0→fwd(pe0) is local; fwd(pe0)→echo(pe2) and the reply
        // echo(pe2)→mailbox(pe0) are remote.
        assert_eq!(rt.ledger().remote_messages(), 2);
        assert!(rt.ledger().byte_hops() > 0);
        rt.shutdown();
    }

    #[test]
    fn a_received_reply_is_already_metered() {
        // The reply is counted before the client can see it, so reading
        // the ledger right after `recv` never misses it.
        let rt = runtime(4);
        let mb = rt.external_mailbox();
        let echo = rt.spawn(PeId(3), Box::new(Echo)).unwrap();
        for n in 0..300 {
            rt.ledger().reset();
            rt.send(echo, Msg::Ping { reply_to: mb.id, n }).unwrap();
            mb.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(rt.ledger().remote_messages(), 2, "round trip {n}");
        }
        rt.shutdown();
    }

    #[test]
    fn dead_process_messages_are_dropped_not_lost_panics() {
        let rt = runtime(2);
        let echo = rt.spawn(PeId(0), Box::new(Echo)).unwrap();
        // Kill via a helper process.
        struct Killer {
            victim: ProcessId,
            notify: ProcessId,
        }
        impl Process<Msg> for Killer {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_, Msg>) {
                ctx.kill(self.victim);
                ctx.send(self.notify, Msg::Done).unwrap();
            }
        }
        let mb = rt.external_mailbox();
        let killer = rt
            .spawn(
                PeId(0),
                Box::new(Killer {
                    victim: echo,
                    notify: mb.id,
                }),
            )
            .unwrap();
        rt.send(killer, Msg::Done).unwrap();
        mb.recv_timeout(Duration::from_secs(5)).unwrap();
        // Now the echo process is gone: sends fail fast.
        let res = rt.send(
            echo,
            Msg::Ping {
                reply_to: mb.id,
                n: 1,
            },
        );
        assert!(res.is_err());
        rt.shutdown();
    }

    #[test]
    fn dropped_mailbox_unregisters_and_fails_senders_fast() {
        let rt = runtime(2);
        let mb = rt.external_mailbox();
        let id = mb.id;
        // Live mailbox: sends are delivered and metered.
        rt.send(id, Msg::Done).unwrap();
        assert!(mb.recv_timeout(Duration::from_secs(5)).is_ok());
        rt.ledger().reset();
        drop(mb);
        // Dropped mailbox: the address is gone, senders error instead of
        // streaming into a void, and nothing phantom is metered.
        let res = rt.send(id, Msg::Done);
        assert!(res.is_err(), "send to dropped mailbox must fail");
        assert_eq!(rt.ledger().remote_messages(), 0);
        rt.shutdown();
    }

    #[test]
    fn spawn_on_bogus_pe_is_an_error() {
        let rt = runtime(2);
        assert!(rt.spawn(PeId(9), Box::new(Echo)).is_err());
        rt.shutdown();
    }
}

//! The discrete-event simulation kernel.
//!
//! Every simulated process runs on its own OS thread, but a single *run
//! token* (the baton) says which thread may execute: exactly one process,
//! or the [`Sim::run_until_idle`] caller, at any moment. There is no
//! kernel thread. A process that blocks — [`Ctx::sleep`], [`Ctx::recv`],
//! [`Ctx::call`], [`Ctx::park`] — or exits runs the scheduling step itself,
//! under the kernel lock it already holds: pick the next runnable process,
//! or advance the virtual clock to the next event and fire it, until some
//! process can run. If the step picks the blocking process itself (a sleep
//! with nothing else due, a reply that is already due) it simply returns
//! and no thread switch happens; otherwise it opens the picked process's
//! gate and parks on its own. When nothing is left to run, the token goes
//! home to the `Sim::run_*` caller, which only starts the first step and
//! reports the [`RunOutcome`].
//!
//! Because only one process runs at a time and ties are broken by event
//! sequence numbers, a simulation is **fully deterministic** for a given
//! seed, while application code stays plain imperative Rust (no async).

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::detect::{StuckProc, WaitAnnotation, WaitKind};
use crate::metrics::MetricsRegistry;
use crate::scheduler::{Decision, FifoScheduler, Scheduler};
use crate::time::SimTime;
use crate::trace::{SpanId, TraceCtx, Tracer};
use crate::wheel::{EventQueueStats, TimingWheel};

/// Identifier of a simulated process.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub(crate) u64);

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pid({})", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Address of a mailbox; the unit of message delivery.
///
/// An `Addr` can be freely cloned and shared between processes; anyone can
/// send to it, while receiving is reserved for one process at a time.
/// Addresses serialize as their raw id, so service handles can travel
/// inside function payloads (like connection strings in Lambda env vars).
#[derive(
    Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Addr(pub(crate) u64);

impl Addr {
    /// Reconstructs an address from its raw id.
    ///
    /// Only meaningful for ids previously obtained from [`Addr::into_raw`];
    /// mainly useful in tests and tables keyed by raw ids.
    pub fn from_raw(id: u64) -> Addr {
        Addr(id)
    }

    /// The raw mailbox id behind this address.
    pub fn into_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({})", self.0)
    }
}

/// A message in flight or delivered to a mailbox.
pub struct Msg {
    /// The payload. Downcast it with [`Msg::take`].
    pub body: Box<dyn Any + Send>,
    /// Simulated wire size in bytes (used by bandwidth-aware models).
    pub size: usize,
}

impl Msg {
    /// Creates a message with a zero simulated size.
    pub fn new<T: Any + Send>(body: T) -> Msg {
        Msg { body: Box::new(body), size: 0 }
    }

    /// Creates a message carrying a simulated wire size.
    pub fn sized<T: Any + Send>(body: T, size: usize) -> Msg {
        Msg { body: Box::new(body), size }
    }

    /// Downcasts the payload to `T`.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a `T`; message types are part of each
    /// service's protocol, so a mismatch is a programming error.
    pub fn take<T: Any>(self) -> T {
        *self
            .body
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("message downcast to {} failed", std::any::type_name::<T>()))
    }

    /// Attempts to downcast the payload to `T`, returning `self` on failure.
    pub fn try_take<T: Any>(self) -> Result<T, Msg> {
        let size = self.size;
        match self.body.downcast::<T>() {
            Ok(b) => Ok(*b),
            Err(body) => Err(Msg { body, size }),
        }
    }

    /// Whether the payload is a `T` (without consuming the message).
    pub fn is<T: Any>(&self) -> bool {
        self.body.is::<T>()
    }
}

impl fmt::Debug for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Msg").field("size", &self.size).finish_non_exhaustive()
    }
}

/// RPC envelope: a request carrying the address to reply to.
///
/// Servers receive `Request` values from their mailbox, handle
/// `body`, and reply by sending the response to `reply_to` — immediately or
/// later (deferred replies are how server-side synchronization objects such
/// as barriers release their waiters).
pub struct Request {
    /// Where the caller is waiting for the response.
    pub reply_to: Addr,
    /// The request payload; downcast to the protocol type.
    pub body: Box<dyn Any + Send>,
}

impl Request {
    /// Downcasts the request payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a `T`.
    pub fn take<T: Any>(self) -> (Addr, T) {
        let reply_to = self.reply_to;
        let body = *self.body.downcast::<T>().unwrap_or_else(|_| {
            panic!("request downcast to {} failed", std::any::type_name::<T>())
        });
        (reply_to, body)
    }
}

impl fmt::Debug for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Request").field("reply_to", &self.reply_to).finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

enum EventKind {
    /// Wake a process blocked in `sleep`, or time out a blocked `recv`.
    Wake { pid: Pid, epoch: u64 },
    /// Deliver a message to a mailbox.
    Deliver { mailbox: u64, msg: Msg },
}

/// How long (in virtual time) `run_until_idle` keeps firing events that
/// cannot directly wake a non-daemon process after the last non-daemon ran.
/// Past this, the surviving processes are wedged: only daemon housekeeping
/// (heartbeats, pollers) is left, and none of it can free them. Daemon
/// request/reply chains serving a blocked client stay well under this.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// Whether firing this event can directly hand progress to a non-daemon
/// process: a wake for a live non-daemon (sleep or recv timeout), or a
/// delivery to a mailbox a non-daemon is blocked on. Such events are
/// exempt from the stall cutoff in [`KernelState::step`] — a client
/// sleeping for an hour is idle, not wedged.
///
/// A free function over the individual tables (rather than a
/// `KernelState` method) so `step` can consult it while the event queue
/// is borrowed by `peek`.
fn event_can_progress(
    procs: &HashMap<u64, ProcSlot>,
    mailboxes: &HashMap<u64, MailboxState>,
    kind: &EventKind,
) -> bool {
    match kind {
        EventKind::Wake { pid, .. } => procs.get(&pid.0).is_some_and(|p| !p.daemon),
        EventKind::Deliver { mailbox, .. } => mailboxes
            .get(mailbox)
            .and_then(|mb| mb.waiting)
            .and_then(|pid| procs.get(&pid.0))
            .is_some_and(|p| !p.daemon),
    }
}

// ---------------------------------------------------------------------------
// Gates (token handoff)
// ---------------------------------------------------------------------------

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum RunCmd {
    Park,
    Run,
    Exit,
}

/// Where a parked thread waits for the baton: a process thread, or the
/// `Sim::run_*` caller (the baton's home at start and at quiescence).
struct ProcGate {
    cmd: Mutex<RunCmd>,
    cv: Condvar,
    /// Whether this thread holds the run token (set on each wakeup).
    held: AtomicBool,
}

impl ProcGate {
    fn new() -> Arc<ProcGate> {
        Arc::new(ProcGate {
            cmd: Mutex::new(RunCmd::Park),
            cv: Condvar::new(),
            held: AtomicBool::new(false),
        })
    }

    /// Blocks until the token is passed here (`Run`) or termination is
    /// requested (`Exit`).
    fn wait_for_run(&self) -> RunCmd {
        let mut cmd = self.cmd.lock();
        while *cmd == RunCmd::Park {
            self.cv.wait(&mut cmd);
        }
        let got = *cmd;
        if got == RunCmd::Run {
            *cmd = RunCmd::Park;
        }
        self.held.store(got == RunCmd::Run, Ordering::SeqCst);
        got
    }

    fn set(&self, c: RunCmd) {
        let mut cmd = self.cmd.lock();
        *cmd = c;
        self.cv.notify_one();
    }
}

/// Panic payload used to unwind process threads on shutdown/kill.
struct ShutdownSignal;

// ---------------------------------------------------------------------------
// Kernel state
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum BlockState {
    Runnable,
    Sleeping,
    Receiving { mailbox: u64 },
    Parked,
    Exited,
}

struct ProcSlot {
    name: String,
    gate: Arc<ProcGate>,
    join: Option<std::thread::JoinHandle<()>>,
    blocked: BlockState,
    epoch: u64,
    delivered: Option<Msg>,
    killed: bool,
    park_permit: bool,
    /// Daemon processes (long-lived services) are excluded from the
    /// blocked-process report: a quiescent simulation with only daemons
    /// waiting for requests is not a deadlock.
    daemon: bool,
    /// What this process is blocked on, as registered by the blocking
    /// primitive via [`Ctx::annotate_wait`]; cleared on wakeup. Feeds the
    /// wait-for graph in [`crate::detect`].
    waiting_on: Option<WaitAnnotation>,
}

struct MailboxState {
    name: String,
    owner: Option<Pid>,
    queue: VecDeque<Msg>,
    waiting: Option<Pid>,
    closed: bool,
}

pub(crate) struct KernelState {
    now: SimTime,
    next_seq: u64,
    events: TimingWheel<EventKind>,
    procs: HashMap<u64, ProcSlot>,
    runnable: VecDeque<Pid>,
    mailboxes: HashMap<u64, MailboxState>,
    next_pid: u64,
    next_mailbox: u64,
    panic: Option<Box<dyn Any + Send>>,
    live: usize,
    live_nondaemon: usize,
    trace: bool,
    /// Picks the next runnable process when several are ready at once.
    scheduler: Box<dyn Scheduler>,
    /// Every contended pick, in order; replaying these choices reproduces
    /// the schedule (see [`crate::scheduler::ReplayScheduler`]).
    decisions: Vec<Decision>,
    /// Current holder of each annotated resource (`resource id -> (pid,
    /// name)`), maintained by [`Ctx::resource_acquired`] and friends.
    holders: HashMap<u64, (Pid, String)>,
    /// Virtual time a non-daemon process last received the run token; the
    /// stall detector in `step` keys off this.
    last_nondaemon_run: SimTime,
    /// Where the current `Sim::run_*` call stops (`None`: run until idle).
    deadline: Option<SimTime>,
    /// Run-token passes from one process thread to another.
    handoffs: u64,
    /// Steps that picked the blocking process itself (no thread switch).
    self_handoffs: u64,
    /// Span collector, if observability is enabled ([`Sim::set_tracer`]).
    /// `None` makes every `Ctx::span_*` call a no-op.
    tracer: Option<Tracer>,
    /// Metric sink, if installed ([`Sim::set_metrics`]); `None` makes every
    /// `Ctx::metric_*` call a no-op.
    metrics: Option<MetricsRegistry>,
}

impl KernelState {
    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(time, seq, kind);
    }

    fn make_runnable(&mut self, pid: Pid) {
        if let Some(p) = self.procs.get_mut(&pid.0) {
            if p.blocked != BlockState::Exited && p.blocked != BlockState::Runnable {
                p.blocked = BlockState::Runnable;
                p.waiting_on = None; // the wait ended
                self.runnable.push_back(pid);
            }
        }
    }

    /// Removes the next process to run from the runnable queue. Contended
    /// picks (≥ 2 candidates) go through the scheduler and are recorded in
    /// the decision trace.
    fn pick_runnable(&mut self) -> Option<Pid> {
        match self.runnable.len() {
            0 => None,
            1 => self.runnable.pop_front(),
            n => {
                let idx = self.scheduler.pick(self.runnable.make_contiguous()).min(n - 1);
                self.decisions.push(Decision { options: n as u32, choice: idx as u32 });
                self.runnable.remove(idx)
            }
        }
    }

    /// One scheduling step, run by whichever thread holds the run token
    /// when it blocks or exits: picks the next process to run, firing due
    /// events until one is runnable. Killed processes are told to unwind
    /// instead of running. `None` means quiescence — nothing can run before
    /// the deadline, or a process panicked — and the token goes home.
    ///
    /// Without a deadline, events stop once every non-daemon process has
    /// exited: the remaining ones belong to long-lived services
    /// (heartbeats, pollers) that would otherwise tick forever. The stall
    /// bound covers the deadlocked-but-daemons-keep-ticking case: if no
    /// non-daemon has run for that long in virtual time, the survivors are
    /// wedged and firing more daemon timers can never free them.
    fn step(&mut self) -> Option<Pid> {
        loop {
            if self.panic.is_some() {
                return None;
            }
            if let Some(pid) = self.pick_runnable() {
                let Some(p) = self.procs.get_mut(&pid.0) else { continue };
                if p.blocked == BlockState::Exited {
                    continue;
                }
                if p.killed {
                    p.gate.set(RunCmd::Exit);
                    self.proc_exited(pid);
                    continue;
                }
                if !p.daemon {
                    self.last_nondaemon_run = self.now;
                }
                return Some(pid);
            }
            let fire = match self.events.peek() {
                Some((time, _, kind)) => match self.deadline {
                    Some(d) => time <= d,
                    None => {
                        self.live_nondaemon > 0
                            && (time <= self.last_nondaemon_run + STALL_LIMIT
                                || event_can_progress(&self.procs, &self.mailboxes, kind))
                    }
                },
                None => false,
            };
            if !fire {
                return None;
            }
            let (time, _, kind) = self.events.pop().expect("peeked event");
            debug_assert!(time >= self.now, "event in the past");
            self.now = time;
            self.apply_event(kind);
        }
    }

    fn apply_event(&mut self, kind: EventKind) {
        match kind {
            EventKind::Wake { pid, epoch } => {
                let wake = match self.procs.get(&pid.0) {
                    Some(p) => {
                        p.epoch == epoch
                            && matches!(
                                p.blocked,
                                BlockState::Sleeping | BlockState::Receiving { .. }
                            )
                    }
                    None => false,
                };
                if wake {
                    // A recv timeout leaves `delivered` empty — the receiver
                    // interprets that as expiry.
                    self.make_runnable(pid);
                }
            }
            EventKind::Deliver { mailbox, msg } => {
                let waiter = match self.mailboxes.get_mut(&mailbox) {
                    Some(mb) if !mb.closed => {
                        if let Some(pid) = mb.waiting.take() {
                            Some((pid, msg))
                        } else {
                            mb.queue.push_back(msg);
                            None
                        }
                    }
                    // Closed or unknown mailbox: the message is dropped,
                    // like a packet to a dead host.
                    _ => None,
                };
                if let Some((pid, msg)) = waiter {
                    if let Some(p) = self.procs.get_mut(&pid.0) {
                        p.delivered = Some(msg);
                        // Invalidate any pending recv-timeout for this block.
                        p.epoch += 1;
                    }
                    self.make_runnable(pid);
                }
            }
        }
    }

    fn proc_exited(&mut self, pid: Pid) {
        if let Some(p) = self.procs.get_mut(&pid.0) {
            if p.blocked == BlockState::Exited {
                return;
            }
            // Clean a dangling recv registration.
            if let BlockState::Receiving { mailbox } = p.blocked {
                if let Some(mb) = self.mailboxes.get_mut(&mailbox) {
                    if mb.waiting == Some(pid) {
                        mb.waiting = None;
                    }
                }
            }
            p.blocked = BlockState::Exited;
            p.waiting_on = None;
            self.live -= 1;
            if !p.daemon {
                self.live_nondaemon -= 1;
            }
        }
        // A dead process holds nothing.
        self.holders.retain(|_, (holder, _)| *holder != pid);
        // Close mailboxes owned by this process.
        for mb in self.mailboxes.values_mut() {
            if mb.owner == Some(pid) {
                mb.closed = true;
                mb.queue.clear();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel and Sim
// ---------------------------------------------------------------------------

pub(crate) struct Kernel {
    state: Mutex<KernelState>,
    /// The `Sim::run_*` caller's gate.
    home: Arc<ProcGate>,
    seed: u64,
}

impl Kernel {
    /// Runs a scheduling step for the token holder `me` (`None`: the
    /// `Sim::run_*` caller) and passes the token to whoever it picked.
    /// Returns `true` when the holder keeps the token: the step picked `me`
    /// itself, or found nothing to run while the token was already home.
    fn pass_baton(&self, mut st: MutexGuard<'_, KernelState>, me: Option<Pid>) -> bool {
        let gate = match st.step() {
            Some(pid) if Some(pid) == me => {
                st.self_handoffs += 1;
                return true;
            }
            Some(pid) => {
                if me.is_some() {
                    st.handoffs += 1;
                }
                st.procs[&pid.0].gate.clone()
            }
            None if me.is_none() => return true,
            None => self.home.clone(),
        };
        drop(st);
        gate.set(RunCmd::Run);
        false
    }
}

/// Outcome of a [`Sim::run_until_idle`] call.
#[derive(Debug)]
pub struct RunOutcome {
    /// Virtual time when the run stopped.
    pub time: SimTime,
    /// Names of processes that are still alive but blocked forever
    /// (no event can ever wake them). Empty for a clean quiescent run.
    pub blocked: Vec<String>,
}

impl RunOutcome {
    /// Panics if any live process is blocked with no pending event —
    /// i.e. the simulation deadlocked.
    ///
    /// # Panics
    ///
    /// Panics with the list of blocked processes.
    pub fn expect_quiescent(&self) {
        assert!(
            self.blocked.is_empty(),
            "simulation deadlocked at {} with blocked processes: {:?}",
            self.time,
            self.blocked
        );
    }
}

/// A deterministic discrete-event simulation.
///
/// # Examples
///
/// ```
/// use simcore::{Sim, SimTime};
/// use std::time::Duration;
///
/// let mut sim = Sim::new(42);
/// let inbox = sim.mailbox("inbox");
/// sim.spawn("echo", move |ctx| {
///     let msg = ctx.recv(inbox);
///     assert_eq!(msg.take::<u32>(), 7);
/// });
/// sim.spawn("sender", move |ctx| {
///     ctx.sleep(Duration::from_millis(5));
///     ctx.send(inbox, simcore::Msg::new(7u32), Duration::from_micros(100));
/// });
/// let out = sim.run_until_idle();
/// out.expect_quiescent();
/// assert_eq!(out.time, SimTime::from_nanos(5_100_000));
/// ```
pub struct Sim {
    kernel: Arc<Kernel>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.kernel.state.lock();
        f.debug_struct("Sim")
            .field("now", &st.now)
            .field("live", &st.live)
            .field("pending_events", &st.events.len())
            .finish()
    }
}

impl Sim {
    /// Creates a simulation seeded with `seed`; the same seed gives the same
    /// run, event for event. Runnable-queue ties are broken in FIFO order
    /// ([`FifoScheduler`]); see [`Sim::with_scheduler`] to explore other
    /// schedules.
    pub fn new(seed: u64) -> Sim {
        Sim::with_scheduler(seed, Box::new(FifoScheduler))
    }

    /// Creates a simulation whose runnable-queue ties are broken by
    /// `scheduler` instead of FIFO order. Used by [`crate::explore`] to
    /// search over schedules and to replay a failing one.
    pub fn with_scheduler(seed: u64, scheduler: Box<dyn Scheduler>) -> Sim {
        let trace = std::env::var("SIM_TRACE").map(|v| v == "1").unwrap_or(false);
        Sim {
            kernel: Arc::new(Kernel {
                state: Mutex::new(KernelState {
                    now: SimTime::ZERO,
                    next_seq: 0,
                    events: TimingWheel::new(),
                    procs: HashMap::new(),
                    runnable: VecDeque::new(),
                    mailboxes: HashMap::new(),
                    next_pid: 0,
                    next_mailbox: 0,
                    panic: None,
                    live: 0,
                    live_nondaemon: 0,
                    trace,
                    scheduler,
                    decisions: Vec::new(),
                    holders: HashMap::new(),
                    last_nondaemon_run: SimTime::ZERO,
                    deadline: None,
                    handoffs: 0,
                    self_handoffs: 0,
                    tracer: None,
                    metrics: None,
                }),
                home: ProcGate::new(),
                seed,
            }),
        }
    }

    /// The seed this simulation was created with.
    pub fn seed(&self) -> u64 {
        self.kernel.seed
    }

    /// Allocation and occupancy accounting for the kernel event queue,
    /// plus the run-token handoff counts. Used by the zero-allocation
    /// assertions in tests and the kernel bench report.
    pub fn event_queue_stats(&self) -> EventQueueStats {
        let st = self.kernel.state.lock();
        EventQueueStats {
            handoffs: st.handoffs,
            self_handoffs: st.self_handoffs,
            ..st.events.stats()
        }
    }

    /// Installs a span collector: from now on `Ctx::span_begin` and friends
    /// record into `tracer`. Recording is pure bookkeeping — it consumes no
    /// virtual time, no randomness, and adds no events, so an instrumented
    /// run is event-for-event identical to an uninstrumented one.
    pub fn set_tracer(&self, tracer: &Tracer) {
        self.kernel.state.lock().tracer = Some(tracer.clone());
    }

    /// Installs a metric sink: from now on `Ctx::metric_incr` /
    /// `Ctx::metric_record` write into `metrics`. Like tracing, recording
    /// never perturbs the simulation.
    pub fn set_metrics(&self, metrics: &MetricsRegistry) {
        self.kernel.state.lock().metrics = Some(metrics.clone());
    }

    /// The installed span collector, if any.
    pub fn tracer(&self) -> Option<Tracer> {
        self.kernel.state.lock().tracer.clone()
    }

    /// The installed metric sink, if any.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.kernel.state.lock().metrics.clone()
    }

    /// The scheduling decisions made so far (contended picks only).
    /// Feeding the choices to a [`crate::scheduler::ReplayScheduler`] on a
    /// fresh `Sim` with the same seed reproduces this run's schedule.
    pub fn decision_trace(&self) -> Vec<Decision> {
        self.kernel.state.lock().decisions.clone()
    }

    /// Snapshot of the permanently blocked non-daemon processes plus the
    /// resource-holder table, for [`Sim::deadlock_report`].
    pub(crate) fn stuck_snapshot(&self) -> (SimTime, Vec<StuckProc>, HashMap<u64, (Pid, String)>) {
        let st = self.kernel.state.lock();
        let mut stuck: Vec<StuckProc> = st
            .procs
            .iter()
            .filter(|(_, p)| {
                !p.daemon && !matches!(p.blocked, BlockState::Exited | BlockState::Runnable)
            })
            .map(|(id, p)| StuckProc {
                pid: Pid(*id),
                name: p.name.clone(),
                block_state: match p.blocked {
                    BlockState::Sleeping => "sleeping".to_string(),
                    BlockState::Receiving { mailbox } => {
                        let name =
                            st.mailboxes.get(&mailbox).map(|mb| mb.name.as_str()).unwrap_or("?");
                        format!("receiving on {name}")
                    }
                    BlockState::Parked => "parked".to_string(),
                    _ => unreachable!("filtered above"),
                },
                wait: p.waiting_on.clone(),
            })
            .collect();
        stuck.sort_by_key(|p| p.pid);
        (st.now, stuck, st.holders.clone())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.state.lock().now
    }

    /// Creates an unowned mailbox (never auto-closed).
    pub fn mailbox(&self, name: &str) -> Addr {
        create_mailbox(&self.kernel, name, None)
    }

    /// Spawns a process. It becomes runnable at the current virtual time.
    pub fn spawn<F>(&self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_process(&self.kernel, name, false, f)
    }

    /// Spawns a daemon process: a long-lived service that is allowed to be
    /// blocked waiting for requests when the simulation goes quiescent.
    pub fn spawn_daemon<F>(&self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_process(&self.kernel, name, true, f)
    }

    /// Runs until no events remain.
    pub fn run_until_idle(&mut self) -> RunOutcome {
        self.run_inner(None)
    }

    /// Runs until virtual time `t`; events after `t` stay pending and the
    /// clock is left at exactly `t`.
    pub fn run_until(&mut self, t: SimTime) -> RunOutcome {
        self.run_inner(Some(t))
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: Duration) -> RunOutcome {
        let t = self.now() + d;
        self.run_until(t)
    }

    /// Kicks off the first scheduling step, waits for the token to come
    /// home, and reports.
    fn run_inner(&mut self, deadline: Option<SimTime>) -> RunOutcome {
        let mut st = self.kernel.state.lock();
        st.deadline = deadline;
        if !self.kernel.pass_baton(st, None) {
            self.kernel.home.wait_for_run();
        }
        let mut st = self.kernel.state.lock();
        if let Some(p) = st.panic.take() {
            drop(st);
            resume_unwind(p);
        }
        if let Some(d) = deadline {
            if st.now < d {
                st.now = d;
            }
        }
        let blocked = st
            .procs
            .values()
            .filter(|p| {
                !p.daemon && p.blocked != BlockState::Exited && p.blocked != BlockState::Runnable
            })
            .map(|p| p.name.clone())
            .collect();
        RunOutcome { time: st.now, blocked }
    }

    /// Marks a process for termination. If it is blocked it unwinds without
    /// ever running again; if it is runnable it unwinds instead of running.
    pub fn kill(&self, pid: Pid) {
        kill_process(&self.kernel, pid);
    }

    /// Names of live processes that are currently blocked (diagnostic aid).
    pub fn blocked_processes(&self) -> Vec<String> {
        let st = self.kernel.state.lock();
        st.procs
            .values()
            .filter(|p| {
                !p.daemon && !matches!(p.blocked, BlockState::Exited | BlockState::Runnable)
            })
            .map(|p| p.name.clone())
            .collect()
    }

    /// Number of processes that have not exited.
    pub fn live_processes(&self) -> usize {
        self.kernel.state.lock().live
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Ask every remaining thread to unwind, then join them.
        let joins: Vec<_> = {
            let mut st = self.kernel.state.lock();
            let pids: Vec<u64> = st.procs.keys().copied().collect();
            let mut joins = Vec::new();
            for id in pids {
                let p = st.procs.get_mut(&id).expect("pid listed");
                if p.blocked != BlockState::Exited {
                    p.gate.set(RunCmd::Exit);
                }
                if let Some(j) = p.join.take() {
                    joins.push(j);
                }
            }
            joins
        };
        for j in joins {
            let _ = j.join();
        }
    }
}

fn create_mailbox(kernel: &Arc<Kernel>, name: &str, owner: Option<Pid>) -> Addr {
    let mut st = kernel.state.lock();
    let id = st.next_mailbox;
    st.next_mailbox += 1;
    st.mailboxes.insert(
        id,
        MailboxState {
            name: name.to_string(),
            owner,
            queue: VecDeque::new(),
            waiting: None,
            closed: false,
        },
    );
    Addr(id)
}

fn kill_process(kernel: &Arc<Kernel>, pid: Pid) {
    let mut st = kernel.state.lock();
    if let Some(p) = st.procs.get_mut(&pid.0) {
        if p.blocked == BlockState::Exited {
            return;
        }
        p.killed = true;
        match p.blocked {
            BlockState::Runnable => {
                // Handled when a scheduling step pops it from the runnable
                // queue.
            }
            _ => {
                // Blocked: wake it with Exit. It unwinds without taking the
                // token, so it must not pass the token on.
                p.gate.set(RunCmd::Exit);
                st.proc_exited(pid);
            }
        }
    }
}

fn spawn_process<F>(kernel: &Arc<Kernel>, name: &str, daemon: bool, f: F) -> Pid
where
    F: FnOnce(&mut Ctx) + Send + 'static,
{
    let gate = ProcGate::new();
    let pid = {
        let mut st = kernel.state.lock();
        let id = st.next_pid;
        st.next_pid += 1;
        Pid(id)
    };
    let thread_gate = gate.clone();
    let thread_kernel = kernel.clone();
    let pname = name.to_string();
    let seed = kernel.seed ^ pid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let join = std::thread::Builder::new()
        .name(format!("sim-{pname}"))
        .stack_size(256 * 1024)
        .spawn(move || {
            match thread_gate.wait_for_run() {
                RunCmd::Run => {}
                _ => {
                    // Exited before first run (shutdown); nothing to clean.
                    let mut st = thread_kernel.state.lock();
                    st.proc_exited(pid);
                    return;
                }
            }
            let mut ctx = Ctx {
                kernel: thread_kernel.clone(),
                pid,
                gate: thread_gate.clone(),
                rng: StdRng::seed_from_u64(seed),
                name: pname,
                trace_ctx: TraceCtx::root(),
            };
            let result = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
            let mut st = thread_kernel.state.lock();
            if let Err(p) = result {
                if !p.is::<ShutdownSignal>() {
                    st.panic = Some(p);
                }
            }
            st.proc_exited(pid);
            if thread_gate.held.load(Ordering::SeqCst) {
                thread_kernel.pass_baton(st, Some(pid));
            }
        })
        .expect("failed to spawn simulation thread");
    {
        let mut st = kernel.state.lock();
        st.procs.insert(
            pid.0,
            ProcSlot {
                name: name.to_string(),
                gate,
                join: Some(join),
                blocked: BlockState::Runnable,
                epoch: 0,
                delivered: None,
                killed: false,
                park_permit: false,
                daemon,
                waiting_on: None,
            },
        );
        st.live += 1;
        if !daemon {
            st.live_nondaemon += 1;
        }
        st.runnable.push_back(pid);
    }
    pid
}

// ---------------------------------------------------------------------------
// Ctx: the process-side API
// ---------------------------------------------------------------------------

/// The execution context handed to every simulated process.
///
/// All methods that block (`sleep`, `recv`, `call`, `park`) run a
/// scheduling step that passes the run token on, and resume when the
/// corresponding event fires.
pub struct Ctx {
    kernel: Arc<Kernel>,
    pid: Pid,
    gate: Arc<ProcGate>,
    rng: StdRng,
    name: String,
    /// Current trace context; spans started with [`Ctx::span_begin`] are
    /// parented under it. Not inherited on spawn — infrastructure code
    /// forwards it explicitly inside its messages.
    trace_ctx: TraceCtx,
}

impl fmt::Debug for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx").field("pid", &self.pid).field("name", &self.name).finish()
    }
}

impl Ctx {
    /// This process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// This process's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.state.lock().now
    }

    /// Deterministic per-process random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Emits a trace line when `SIM_TRACE=1`.
    pub fn trace(&self, msg: impl AsRef<str>) {
        let st = self.kernel.state.lock();
        if st.trace {
            eprintln!("[{}] {}: {}", st.now, self.name, msg.as_ref());
        }
    }

    // --- observability -----------------------------------------------------
    //
    // All of these are no-ops when no tracer / metrics registry is installed
    // on the kernel, and recording itself is pure bookkeeping: no virtual
    // time, no events, no RNG — instrumented runs stay deterministic and
    // event-for-event identical to uninstrumented ones.

    /// Current time plus the installed tracer, fetched under one lock.
    fn tracer_now(&self) -> (SimTime, Option<Tracer>) {
        let st = self.kernel.state.lock();
        (st.now, st.tracer.clone())
    }

    /// This process's current trace context (the parent for new spans).
    pub fn trace_ctx(&self) -> TraceCtx {
        self.trace_ctx
    }

    /// Replaces the current trace context, returning the previous one so
    /// callers can scope a context and restore it.
    pub fn set_trace_ctx(&mut self, tc: TraceCtx) -> TraceCtx {
        std::mem::replace(&mut self.trace_ctx, tc)
    }

    /// Begins a span under the current trace context. Returns
    /// [`SpanId::NONE`] (and records nothing) when no tracer is installed.
    pub fn span_begin(&self, name: &str, cat: &str) -> SpanId {
        self.span_begin_under(self.trace_ctx.span, name, cat)
    }

    /// Begins a span under an explicit parent (e.g. a span id carried in a
    /// request message).
    pub fn span_begin_under(&self, parent: SpanId, name: &str, cat: &str) -> SpanId {
        let (now, tracer) = self.tracer_now();
        match tracer {
            Some(t) => t.begin(now, self.pid.0, &self.name, parent, name, cat),
            None => SpanId::NONE,
        }
    }

    /// Ends a span at the current virtual time (no-op for
    /// [`SpanId::NONE`]).
    pub fn span_end(&self, id: SpanId) {
        if id.is_none() {
            return;
        }
        let (now, tracer) = self.tracer_now();
        if let Some(t) = tracer {
            t.end(id, now);
        }
    }

    /// Attaches a `key = value` annotation to a span.
    pub fn span_annotate(&self, id: SpanId, key: &str, value: impl Into<String>) {
        if id.is_none() {
            return;
        }
        if let Some(t) = self.kernel.state.lock().tracer.clone() {
            t.annotate(id, key, value);
        }
    }

    /// Records a point event under the current trace context.
    pub fn span_instant(&self, name: &str, cat: &str) -> SpanId {
        let (now, tracer) = self.tracer_now();
        match tracer {
            Some(t) => t.instant(now, self.pid.0, &self.name, self.trace_ctx.span, name, cat),
            None => SpanId::NONE,
        }
    }

    /// The installed metric sink, if any.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.kernel.state.lock().metrics.clone()
    }

    /// The installed span collector, if any.
    pub fn tracer(&self) -> Option<Tracer> {
        self.kernel.state.lock().tracer.clone()
    }

    /// Increments the counter named `name` (no-op without a registry).
    pub fn metric_incr(&self, name: &str) {
        if let Some(m) = self.metrics() {
            m.incr(name);
        }
    }

    /// Adds `n` to the counter named `name` (no-op without a registry).
    pub fn metric_add(&self, name: &str, n: u64) {
        if let Some(m) = self.metrics() {
            m.add(name, n);
        }
    }

    /// Records one observation into the histogram named `name` (no-op
    /// without a registry).
    pub fn metric_record(&self, name: &str, d: Duration) {
        if let Some(m) = self.metrics() {
            m.record(name, d);
        }
    }

    /// Appends `(now, value)` to the time series named `name` (no-op
    /// without a registry) — gauge-style measurements such as queue depths
    /// or pool sizes, stamped with virtual time.
    pub fn metric_push(&self, name: &str, value: f64) {
        if let Some(m) = self.metrics() {
            let now = self.now();
            m.series(name).push(now, value);
        }
    }

    /// Blocks this process (its block state is already recorded under
    /// `st`): passes the run token on and waits until it comes back, or
    /// returns at once if the scheduling step picked this process again.
    fn yield_to_kernel(&self, st: MutexGuard<'_, KernelState>) {
        if self.kernel.pass_baton(st, Some(self.pid)) {
            return;
        }
        match self.gate.wait_for_run() {
            RunCmd::Run => {}
            // resume_unwind skips the panic hook: shutdown is not an error.
            _ => std::panic::resume_unwind(Box::new(ShutdownSignal)),
        }
    }

    /// Advances this process's clock by `d` (e.g. network or think time).
    pub fn sleep(&mut self, d: Duration) {
        let mut st = self.kernel.state.lock();
        let now = st.now;
        let p = st.procs.get_mut(&self.pid.0).expect("own slot");
        p.epoch += 1;
        let epoch = p.epoch;
        p.blocked = BlockState::Sleeping;
        st.push_event(now + d, EventKind::Wake { pid: self.pid, epoch });
        self.yield_to_kernel(st);
    }

    /// Models CPU work taking `d` of virtual time.
    ///
    /// Semantically identical to [`Ctx::sleep`], but code reads better; use
    /// [`crate::cpu::CpuHost`] instead when the CPU is *shared* and
    /// contention matters.
    pub fn compute(&mut self, d: Duration) {
        self.sleep(d);
    }

    /// Creates a mailbox owned by this process (closed automatically when the
    /// process exits).
    pub fn mailbox(&mut self, name: &str) -> Addr {
        create_mailbox(&self.kernel, name, Some(self.pid))
    }

    /// Creates an unowned mailbox that outlives this process.
    pub fn shared_mailbox(&mut self, name: &str) -> Addr {
        create_mailbox(&self.kernel, name, None)
    }

    /// Closes a mailbox; further sends to it are dropped.
    pub fn close_mailbox(&mut self, addr: Addr) {
        let mut st = self.kernel.state.lock();
        if let Some(mb) = st.mailboxes.get_mut(&addr.0) {
            mb.closed = true;
            mb.queue.clear();
        }
    }

    /// Sends `msg` to `to`, arriving after `latency`.
    pub fn send(&mut self, to: Addr, msg: Msg, latency: Duration) {
        let mut st = self.kernel.state.lock();
        let at = st.now + latency;
        st.push_event(at, EventKind::Deliver { mailbox: to.0, msg });
    }

    /// Receives the next message from `mb`, blocking until one arrives.
    ///
    /// # Panics
    ///
    /// Panics if the mailbox is closed or another process is already
    /// receiving on it.
    pub fn recv(&mut self, mb: Addr) -> Msg {
        loop {
            match self.try_begin_recv(mb, None) {
                Ok(m) => return m,
                Err(st) => self.yield_to_kernel(st),
            }
            let mut st = self.kernel.state.lock();
            let p = st.procs.get_mut(&self.pid.0).expect("own slot");
            if let Some(m) = p.delivered.take() {
                return m;
            }
            // Spurious wake (e.g. mailbox closed under us): retry.
            drop(st);
        }
    }

    /// Receives with a timeout; `None` means the timeout expired first.
    pub fn recv_timeout(&mut self, mb: Addr, timeout: Duration) -> Option<Msg> {
        match self.try_begin_recv(mb, Some(timeout)) {
            Ok(m) => return Some(m),
            Err(st) => self.yield_to_kernel(st),
        }
        let mut st = self.kernel.state.lock();
        let p = st.procs.get_mut(&self.pid.0).expect("own slot");
        if let Some(m) = p.delivered.take() {
            return Some(m);
        }
        // Timed out: withdraw the registration.
        if let Some(q) = st.mailboxes.get_mut(&mb.0) {
            if q.waiting == Some(self.pid) {
                q.waiting = None;
            }
        }
        None
    }

    /// If a message is queued, returns it; otherwise registers this process
    /// as the waiter (with an optional timeout event) and returns the still
    /// held kernel lock, for the blocking step.
    fn try_begin_recv(
        &self,
        mb: Addr,
        timeout: Option<Duration>,
    ) -> Result<Msg, MutexGuard<'_, KernelState>> {
        let mut st = self.kernel.state.lock();
        let now = st.now;
        let q = st
            .mailboxes
            .get_mut(&mb.0)
            .unwrap_or_else(|| panic!("recv on unknown mailbox {:?}", mb));
        assert!(!q.closed, "recv on closed mailbox {} ({:?})", q.name, mb);
        if let Some(m) = q.queue.pop_front() {
            return Ok(m);
        }
        assert!(q.waiting.is_none(), "mailbox {} already has a waiting receiver", q.name);
        q.waiting = Some(self.pid);
        let p = st.procs.get_mut(&self.pid.0).expect("own slot");
        p.epoch += 1;
        let epoch = p.epoch;
        p.blocked = BlockState::Receiving { mailbox: mb.0 };
        if let Some(t) = timeout {
            st.push_event(now + t, EventKind::Wake { pid: self.pid, epoch });
        }
        Err(st)
    }

    /// Returns a queued message without blocking, if any.
    pub fn try_recv(&mut self, mb: Addr) -> Option<Msg> {
        let mut st = self.kernel.state.lock();
        st.mailboxes.get_mut(&mb.0).and_then(|q| q.queue.pop_front())
    }

    /// Issues a synchronous RPC: sends `req` to `to` and blocks for the
    /// response. The request travels with `latency`; the response latency is
    /// chosen by the server.
    ///
    /// # Panics
    ///
    /// Panics if the response cannot be downcast to `Resp`.
    pub fn call<Req, Resp>(&mut self, to: Addr, req: Req, latency: Duration) -> Resp
    where
        Req: Any + Send,
        Resp: Any + Send,
    {
        self.call_sized::<Req, Resp>(to, req, latency, 0)
    }

    /// Like [`Ctx::call`] but carries a simulated payload size.
    pub fn call_sized<Req, Resp>(
        &mut self,
        to: Addr,
        req: Req,
        latency: Duration,
        size: usize,
    ) -> Resp
    where
        Req: Any + Send,
        Resp: Any + Send,
    {
        let reply_to = self.mailbox("rpc-reply");
        self.send(to, Msg::sized(Request { reply_to, body: Box::new(req) }, size), latency);
        let resp = self.recv(reply_to);
        self.close_mailbox(reply_to);
        self.drop_mailbox(reply_to);
        resp.take::<Resp>()
    }

    /// Issues an RPC with a timeout; `None` means no reply arrived in time
    /// (e.g. the server crashed). A late reply is silently dropped.
    pub fn call_timeout<Req, Resp>(
        &mut self,
        to: Addr,
        req: Req,
        latency: Duration,
        timeout: Duration,
    ) -> Option<Resp>
    where
        Req: Any + Send,
        Resp: Any + Send,
    {
        let reply_to = self.mailbox("rpc-reply");
        self.send(to, Msg::new(Request { reply_to, body: Box::new(req) }), latency);
        let resp = self.recv_timeout(reply_to, timeout);
        self.close_mailbox(reply_to);
        self.drop_mailbox(reply_to);
        resp.map(|m| m.take::<Resp>())
    }

    /// Issues one request and collects up to `n` replies to it, until
    /// `timeout` elapses (measured from the send). The server side may
    /// answer a single request message several times — the fan-in half of
    /// batched RPC: one message out, replies streaming back individually.
    ///
    /// Returns the replies received in arrival order (fewer than `n` on
    /// timeout). Late replies are silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if a reply cannot be downcast to `Resp`.
    pub fn call_collect<Req, Resp>(
        &mut self,
        to: Addr,
        req: Req,
        latency: Duration,
        n: usize,
        timeout: Duration,
    ) -> Vec<Resp>
    where
        Req: Any + Send,
        Resp: Any + Send,
    {
        let reply_to = self.mailbox("rpc-reply");
        self.send(to, Msg::new(Request { reply_to, body: Box::new(req) }), latency);
        let deadline = self.now() + timeout;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let left = deadline.saturating_duration_since(self.now());
            if left.is_zero() {
                break;
            }
            match self.recv_timeout(reply_to, left) {
                Some(m) => out.push(m.take::<Resp>()),
                None => break,
            }
        }
        self.close_mailbox(reply_to);
        self.drop_mailbox(reply_to);
        out
    }

    /// Replies to an RPC received as a [`Request`].
    pub fn reply<Resp: Any + Send>(&mut self, reply_to: Addr, resp: Resp, latency: Duration) {
        self.send(reply_to, Msg::new(resp), latency);
    }

    /// Removes a mailbox entirely (frees its id).
    fn drop_mailbox(&mut self, addr: Addr) {
        let mut st = self.kernel.state.lock();
        st.mailboxes.remove(&addr.0);
    }

    /// Spawns a child process, runnable at the current virtual time.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_process(&self.kernel, name, false, f)
    }

    /// Spawns a daemon process (see [`Sim::spawn_daemon`]).
    pub fn spawn_daemon<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        spawn_process(&self.kernel, name, true, f)
    }

    /// Kills another process (see [`Sim::kill`]).
    pub fn kill(&mut self, pid: Pid) {
        kill_process(&self.kernel, pid);
    }

    /// Annotates this process as about to block waiting for `resource`.
    ///
    /// Synchronization primitives call this just before blocking; the
    /// annotation is cleared automatically when the process is woken (or
    /// when a pending park permit makes the block a no-op). It feeds the
    /// wait-for graph behind [`Sim::deadlock_report`].
    pub fn annotate_wait(
        &mut self,
        resource: u64,
        kind: WaitKind,
        resource_name: impl Into<String>,
        site: impl Into<String>,
    ) {
        let mut st = self.kernel.state.lock();
        if let Some(p) = st.procs.get_mut(&self.pid.0) {
            p.waiting_on = Some(WaitAnnotation {
                resource,
                resource_name: resource_name.into(),
                kind,
                site: site.into(),
            });
        }
    }

    /// Removes this process's wait annotation (for fast paths that turned
    /// out not to block after all).
    pub fn clear_wait(&mut self) {
        let mut st = self.kernel.state.lock();
        if let Some(p) = st.procs.get_mut(&self.pid.0) {
            p.waiting_on = None;
        }
    }

    /// Registers this process as the holder of `resource` (a lock or
    /// semaphore-like primitive identified by a stable id).
    pub fn resource_acquired(&mut self, resource: u64, name: &str) {
        let mut st = self.kernel.state.lock();
        st.holders.insert(resource, (self.pid, name.to_string()));
    }

    /// Records a direct ownership handoff of `resource` to `to` (e.g. FIFO
    /// lock transfer on release).
    pub fn resource_passed(&mut self, resource: u64, to: Pid, name: &str) {
        let mut st = self.kernel.state.lock();
        st.holders.insert(resource, (to, name.to_string()));
    }

    /// Releases `resource` if this process holds it.
    pub fn resource_released(&mut self, resource: u64) {
        let mut st = self.kernel.state.lock();
        if st.holders.get(&resource).is_some_and(|(h, _)| *h == self.pid) {
            st.holders.remove(&resource);
        }
    }

    /// Blocks until another process calls [`Ctx::unpark`] with this pid.
    /// A pending permit (unpark before park) is consumed immediately.
    pub fn park(&mut self) {
        let mut st = self.kernel.state.lock();
        let p = st.procs.get_mut(&self.pid.0).expect("own slot");
        if p.park_permit {
            p.park_permit = false;
            p.waiting_on = None;
            return;
        }
        p.epoch += 1;
        p.blocked = BlockState::Parked;
        self.yield_to_kernel(st);
    }

    /// Makes a parked process runnable, or stores a permit if it is not
    /// parked yet.
    pub fn unpark(&mut self, pid: Pid) {
        let mut st = self.kernel.state.lock();
        let parked = match st.procs.get_mut(&pid.0) {
            Some(p) => {
                if p.blocked == BlockState::Parked {
                    true
                } else {
                    if p.blocked != BlockState::Exited {
                        p.park_permit = true;
                    }
                    false
                }
            }
            None => false,
        };
        if parked {
            st.make_runnable(pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_is_idle() {
        let mut sim = Sim::new(1);
        let out = sim.run_until_idle();
        out.expect_quiescent();
        assert_eq!(out.time, SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Sim::new(1);
        sim.spawn("sleeper", |ctx| {
            ctx.sleep(Duration::from_millis(10));
            ctx.sleep(Duration::from_millis(5));
        });
        let out = sim.run_until_idle();
        out.expect_quiescent();
        assert_eq!(out.time, SimTime::from_millis(15));
    }

    #[test]
    fn messages_arrive_after_latency() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("rx", move |ctx| {
            let m = ctx.recv(mb);
            assert_eq!(m.take::<&'static str>(), "hello");
            assert_eq!(ctx.now(), SimTime::from_millis(2));
        });
        sim.spawn("tx", move |ctx| {
            ctx.send(mb, Msg::new("hello"), Duration::from_millis(2));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn queued_message_received_without_waiting() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("tx", move |ctx| {
            ctx.send(mb, Msg::new(1u8), Duration::ZERO);
            ctx.send(mb, Msg::new(2u8), Duration::ZERO);
        });
        sim.spawn("rx", move |ctx| {
            ctx.sleep(Duration::from_millis(1));
            assert_eq!(ctx.recv(mb).take::<u8>(), 1);
            assert_eq!(ctx.recv(mb).take::<u8>(), 2);
            assert_eq!(ctx.now(), SimTime::from_millis(1));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn recv_timeout_expires() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("rx", move |ctx| {
            let r = ctx.recv_timeout(mb, Duration::from_millis(3));
            assert!(r.is_none());
            assert_eq!(ctx.now(), SimTime::from_millis(3));
            // A message after the timeout is still receivable later.
            let m = ctx.recv(mb);
            assert_eq!(m.take::<u8>(), 9);
        });
        sim.spawn("tx", move |ctx| {
            ctx.sleep(Duration::from_millis(10));
            ctx.send(mb, Msg::new(9u8), Duration::ZERO);
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn recv_timeout_receives_in_time() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("tx", move |ctx| {
            ctx.send(mb, Msg::new(5u8), Duration::from_millis(1));
        });
        sim.spawn("rx", move |ctx| {
            let r = ctx.recv_timeout(mb, Duration::from_millis(100));
            assert_eq!(r.expect("delivered").take::<u8>(), 5);
            assert_eq!(ctx.now(), SimTime::from_millis(1));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn rpc_round_trip() {
        let mut sim = Sim::new(1);
        let server = sim.mailbox("server");
        sim.spawn("server", move |ctx| {
            for _ in 0..3 {
                let req = ctx.recv(server).take::<Request>();
                let (reply_to, n) = req.take::<u32>();
                ctx.reply(reply_to, n * 2, Duration::from_micros(100));
            }
        });
        sim.spawn("client", move |ctx| {
            for i in 0..3u32 {
                let r: u32 = ctx.call(server, i, Duration::from_micros(100));
                assert_eq!(r, i * 2);
            }
            // 3 calls x 200us round trip
            assert_eq!(ctx.now(), SimTime::from_nanos(600_000));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn call_timeout_on_dead_server() {
        let mut sim = Sim::new(1);
        let server = sim.mailbox("server");
        // No server process: requests pile up unanswered.
        sim.spawn("client", move |ctx| {
            let r: Option<u32> = ctx.call_timeout(
                server,
                1u32,
                Duration::from_micros(100),
                Duration::from_millis(5),
            );
            assert!(r.is_none());
            assert_eq!(ctx.now(), SimTime::from_millis(5));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(1);
        sim.spawn("sleeper", |ctx| {
            ctx.sleep(Duration::from_secs(100));
        });
        let out = sim.run_until(SimTime::from_secs(1));
        assert_eq!(out.time, SimTime::from_secs(1));
        assert_eq!(out.blocked.len(), 1);
        // Resume to the end.
        let out = sim.run_until_idle();
        out.expect_quiescent();
        assert_eq!(out.time, SimTime::from_secs(100));
    }

    #[test]
    fn deadlock_is_reported() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("never");
        sim.spawn("stuck", move |ctx| {
            let _ = ctx.recv(mb);
        });
        let out = sim.run_until_idle();
        assert_eq!(out.blocked, vec!["stuck".to_string()]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn process_panic_propagates() {
        let mut sim = Sim::new(1);
        sim.spawn("bad", |_ctx| panic!("boom"));
        sim.run_until_idle();
    }

    #[test]
    fn kill_blocked_process() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("never");
        let pid = sim.spawn("victim", move |ctx| {
            let _ = ctx.recv(mb);
            unreachable!("killed before any message");
        });
        sim.spawn("killer", move |ctx| {
            ctx.sleep(Duration::from_millis(1));
            ctx.kill(pid);
        });
        let out = sim.run_until_idle();
        out.expect_quiescent();
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn messages_to_dead_process_mailbox_are_dropped() {
        let mut sim = Sim::new(1);
        // The victim owns its inbox; when it exits the inbox closes and
        // later sends are dropped instead of piling up.
        let inbox_cell: Arc<Mutex<Option<Addr>>> = Arc::new(Mutex::new(None));
        let cell = inbox_cell.clone();
        sim.spawn("victim", move |ctx| {
            let inbox = ctx.mailbox("victim-inbox");
            *cell.lock() = Some(inbox);
            // Exits immediately; inbox closes.
        });
        let cell = inbox_cell.clone();
        sim.spawn("sender", move |ctx| {
            ctx.sleep(Duration::from_millis(1));
            let inbox = cell.lock().take().expect("victim ran first");
            ctx.send(inbox, Msg::new(1u8), Duration::ZERO);
            ctx.sleep(Duration::from_millis(1));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn spawn_from_process() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("parent", move |ctx| {
            ctx.spawn("child", move |c| {
                c.sleep(Duration::from_millis(2));
                c.send(mb, Msg::new(7u8), Duration::ZERO);
            });
            let m = ctx.recv(mb);
            assert_eq!(m.take::<u8>(), 7);
            assert_eq!(ctx.now(), SimTime::from_millis(2));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn park_unpark_with_permit() {
        let mut sim = Sim::new(1);
        sim.spawn("main", move |ctx| {
            let me = ctx.pid();
            ctx.spawn("waker", move |c| {
                c.unpark(me); // permit stored before the park
            });
            ctx.sleep(Duration::from_millis(1));
            ctx.park(); // consumes the permit, no block
            assert_eq!(ctx.now(), SimTime::from_millis(1));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn park_then_unpark() {
        let mut sim = Sim::new(1);
        sim.spawn("a", move |ctx| {
            let me = ctx.pid();
            ctx.spawn("waker", move |c| {
                c.sleep(Duration::from_millis(4));
                c.unpark(me);
            });
            ctx.park();
            assert_eq!(ctx.now(), SimTime::from_millis(4));
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<u64> {
            let mut sim = Sim::new(seed);
            let mb = sim.mailbox("mb");
            let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            for i in 0..10u64 {
                let log = log.clone();
                sim.spawn(&format!("w{i}"), move |ctx| {
                    use rand::RngExt;
                    let jitter: u64 = ctx.rng().random_range(0..1000);
                    ctx.sleep(Duration::from_micros(jitter));
                    ctx.send(mb, Msg::new(i), Duration::from_micros(50));
                    log.lock().push(ctx.now().as_nanos());
                });
            }
            let log2 = log.clone();
            sim.spawn("collector", move |ctx| {
                for _ in 0..10 {
                    let m = ctx.recv(mb);
                    log2.lock().push(m.take::<u64>());
                }
            });
            sim.run_until_idle().expect_quiescent();
            let v = log.lock().clone();
            v
        }
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must give identical traces");
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn many_processes() {
        let mut sim = Sim::new(3);
        let mb = sim.mailbox("sink");
        const N: u64 = 300;
        for i in 0..N {
            sim.spawn(&format!("w{i}"), move |ctx| {
                ctx.sleep(Duration::from_micros(i));
                ctx.send(mb, Msg::new(i), Duration::from_micros(10));
            });
        }
        sim.spawn("sink", move |ctx| {
            let mut sum = 0u64;
            for _ in 0..N {
                sum += ctx.recv(mb).take::<u64>();
            }
            assert_eq!(sum, N * (N - 1) / 2);
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn lone_sleeper_keeps_the_baton() {
        let mut sim = Sim::new(1);
        sim.spawn("sleeper", |ctx| {
            for _ in 0..1_000 {
                ctx.sleep(Duration::from_micros(3));
            }
        });
        sim.run_until_idle().expect_quiescent();
        let stats = sim.event_queue_stats();
        assert_eq!((stats.self_handoffs, stats.handoffs), (1_000, 0));
    }

    #[test]
    fn panic_on_a_process_held_baton_surfaces() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("rx", move |ctx| {
            ctx.recv(mb);
            panic!("boom on a passed baton");
        });
        sim.spawn("tx", move |ctx| {
            ctx.send(mb, Msg::new(()), Duration::from_millis(1));
            ctx.sleep(Duration::from_millis(5));
        });
        let err = catch_unwind(AssertUnwindSafe(|| sim.run_until_idle())).expect_err("panics");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"boom on a passed baton"));
        // `tx`'s step passed the baton straight to `rx`, not via a kernel.
        assert!(sim.event_queue_stats().handoffs > 0);
    }

    #[test]
    fn killed_runnable_process_unwinds_without_running() {
        struct Unwound(Arc<AtomicBool>);
        impl Drop for Unwound {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let mut sim = Sim::new(1);
        let ran = Arc::new(AtomicBool::new(false));
        let unwound = Arc::new(AtomicBool::new(false));
        let (ran2, unwound2) = (ran.clone(), unwound.clone());
        let victim = sim.spawn("victim", move |ctx| {
            let _guard = Unwound(unwound2);
            ctx.park();
            ran2.store(true, Ordering::SeqCst);
        });
        sim.spawn("killer", move |ctx| {
            ctx.unpark(victim); // runnable again...
            ctx.kill(victim); // ...but killed before anyone picks it
            ctx.sleep(Duration::from_millis(1)); // this step picks the victim
        });
        sim.run_until_idle().expect_quiescent();
        assert_eq!(sim.live_processes(), 0);
        drop(sim); // joins the victim's thread
        assert!(unwound.load(Ordering::SeqCst), "victim unwound");
        assert!(!ran.load(Ordering::SeqCst), "victim never ran after the kill");
    }

    #[test]
    fn split_run_matches_one_run() {
        use crate::scheduler::RandomScheduler;
        fn run(split: Option<SimTime>) -> (SimTime, Vec<Decision>) {
            let mut sim = Sim::with_scheduler(5, Box::new(RandomScheduler::new(5)));
            let mb = sim.mailbox("sink");
            for i in 0..4u64 {
                sim.spawn(&format!("w{i}"), move |ctx| {
                    for _ in 0..20 {
                        ctx.sleep(Duration::from_micros(10));
                        ctx.send(mb, Msg::new(i), Duration::from_micros(1 + i % 2));
                    }
                });
            }
            sim.spawn("sink", move |ctx| {
                for _ in 0..80 {
                    ctx.recv(mb);
                }
            });
            if let Some(t) = split {
                sim.run_until(t);
            }
            let out = sim.run_until_idle();
            out.expect_quiescent();
            (out.time, sim.decision_trace())
        }
        let whole = run(None);
        assert!(!whole.1.is_empty(), "the workload makes contended picks");
        assert_eq!(run(Some(SimTime::from_nanos(55_000))), whole);
    }

    #[test]
    fn dropping_a_sim_joins_parked_threads() {
        let mut sim = Sim::new(1);
        let alive = Arc::new(());
        for i in 0..4 {
            let alive = alive.clone();
            sim.spawn(&format!("p{i}"), move |ctx| {
                let _alive = alive;
                if i % 2 == 0 {
                    ctx.sleep(Duration::from_secs(3_600));
                } else {
                    let never = ctx.mailbox("never");
                    ctx.recv(never);
                }
            });
        }
        let out = sim.run_until(SimTime::from_secs(1));
        assert_eq!(out.blocked.len(), 4);
        drop(sim);
        assert_eq!(Arc::strong_count(&alive), 1, "every process thread was joined");
    }

    #[test]
    fn zero_latency_send_still_ordered() {
        let mut sim = Sim::new(1);
        let mb = sim.mailbox("mb");
        sim.spawn("tx", move |ctx| {
            for i in 0..5u32 {
                ctx.send(mb, Msg::new(i), Duration::ZERO);
            }
        });
        sim.spawn("rx", move |ctx| {
            for i in 0..5u32 {
                assert_eq!(ctx.recv(mb).take::<u32>(), i);
            }
        });
        sim.run_until_idle().expect_quiescent();
    }
}

//! The simulator: nets, drivers, components, the event loop.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::component::{Component, ComponentId, Ctx};
use crate::error::SimError;
use crate::event::{EventKind, EventQueue};
use crate::logic::{Logic, LogicVec};
use crate::net::{Driver, DriverId, Net, NetId, NetLabel};
use crate::probe::Waveform;
use crate::race::{RaceHazard, RaceHazardKind, RaceState};
use crate::time::Time;

/// What kind of timing rule was broken.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// Data input changed too close *before* a sampling clock edge.
    Setup,
    /// Data input changed too close *after* a sampling clock edge.
    Hold,
    /// Two drivers fought over a net with conflicting definite values.
    DriveConflict,
    /// A flip-flop went metastable (its data input moved inside the
    /// metastability window around the sampling edge).
    Metastability,
    /// A protocol checker observed an illegal interface sequence.
    Protocol,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Setup => "setup",
            ViolationKind::Hold => "hold",
            ViolationKind::DriveConflict => "drive-conflict",
            ViolationKind::Metastability => "metastability",
            ViolationKind::Protocol => "protocol",
        };
        f.write_str(s)
    }
}

/// A recorded timing/protocol violation.
///
/// Violations never abort the run; they accumulate on the simulator so
/// experiments can assert on them. The fmax measurement in `mtf-bench`
/// works by shrinking the clock period until the first [`Setup`]
/// (or data-corruption) report appears.
///
/// [`Setup`]: ViolationKind::Setup
#[derive(Clone, Debug)]
pub struct Violation {
    /// What rule was broken.
    pub kind: ViolationKind,
    /// When.
    pub time: Time,
    /// Reporting component instance name.
    pub source: String,
    /// Free-form details.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {}: {}",
            self.kind, self.source, self.time, self.message
        )
    }
}

/// Kernel counters, taken with [`Simulator::stats`]. Cheap to copy.
///
/// All values are cumulative since the simulator was constructed, and
/// they depend only on the *sequence* of pushes and pops — splitting one
/// `run_until(h)` into `run_until(t); run_until(h)` leaves every counter
/// unchanged. The sharded execution mode
/// ([`run_sharded`](crate::shard::run_sharded)) relies on exactly this:
/// its lockstep rounds slice a shard's run into many `run_until` windows,
/// and a shard with no cross-shard links reports counters identical to
/// the plain single-call path (pinned by `tests/sharded_determinism.rs`).
/// Per-shard totals plus the protocol's own counters (events exchanged,
/// null messages, blocked time) live in
/// [`ShardStats`](crate::shard::ShardStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events popped and dispatched by [`Simulator::run_until`] — both
    /// net-drive events and component wakes, across all calls.
    pub events_processed: u64,
    /// Highest number of events pending at once, counting every queued
    /// event: the same-instant delta ring, the timing wheel and its sorted
    /// overflow map. The ring's own high-water mark is `peak_delta_depth`.
    pub peak_queue_depth: usize,
    /// Wake requests absorbed into an already-queued, not-yet-delivered
    /// wake for the same component at the same instant (each one is a
    /// queue entry saved, not a lost evaluation).
    pub coalesced_wakes: u64,
    /// Events that entered the same-instant delta ring (as opposed to a
    /// future wheel slot).
    pub delta_pushes: u64,
    /// Highest delta-ring occupancy observed — the widest zero-delay
    /// cascade of the run.
    pub peak_delta_depth: usize,
    /// Coarse-level timing-wheel slot refills (each re-places one slot's
    /// events into finer levels).
    pub wheel_cascades: u64,
    /// Events that landed beyond the wheel span and were parked in the
    /// sorted overflow map until the wheel rotated far enough.
    pub overflow_events: u64,
    /// Evaluation passes executed by compiled-region engines (one per
    /// instant at which a compiled region had work). Zero under the pure
    /// event backend.
    pub compiled_edge_evals: u64,
    /// Individual gate/flop evaluations performed inline by compiled
    /// regions — work that the event backend would have paid a queue
    /// entry and a dynamic dispatch for. Zero under the event backend.
    pub compiled_gate_evals: u64,
}

/// Which execution strategy elaboration should install for purely
/// synchronous regions.
///
/// The seam is deliberately *above* the kernel: a compiled region is an
/// ordinary [`Component`] (one per design) that evaluates its levelized
/// gates inline and lands their outputs through
/// [`Ctx::commit_drive`](crate::Ctx::commit_drive), so both backends share
/// one net state, one queue, one RNG and one violation log — they can
/// coexist in a single run and must produce byte-identical observables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Every gate is its own component on the event wheel (the reference).
    #[default]
    Event,
    /// Acyclic synchronous regions run as rank-ordered straight-line code;
    /// the event wheel drives only async controllers, synchronizers,
    /// metastability models and mixed-timing boundary cells.
    Compiled,
}

impl Backend {
    /// The flag spelling, as accepted by [`FromStr`](std::str::FromStr).
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Event => "event",
            Backend::Compiled => "compiled",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "event" => Ok(Backend::Event),
            "compiled" => Ok(Backend::Compiled),
            other => Err(format!(
                "unknown backend '{other}' (expected 'event' or 'compiled')"
            )),
        }
    }
}

/// The discrete-event simulator. See the [crate docs](crate) for the model.
pub struct Simulator {
    nets: Vec<Net>,
    drivers: Vec<Driver>,
    components: Vec<Option<Box<dyn Component>>>,
    queue: EventQueue,
    time: Time,
    rng: StdRng,
    violations: Vec<Violation>,
    waveforms: Vec<Option<Waveform>>,
    /// Guard against zero-delay oscillation: maximum events processed at a
    /// single timestamp before the run aborts with
    /// [`SimError::DeltaOverflow`].
    pub max_events_per_instant: u64,
    events_processed: u64,
    /// Per-component wake-coalescing marker: the instant of a queued,
    /// not-yet-delivered wake for that component (`Time::MAX` when none).
    /// A wake request matching the marker is dropped — the queued wake
    /// already covers it.
    wake_pending: Vec<Time>,
    coalesced_wakes: u64,
    compiled_edge_evals: u64,
    compiled_gate_evals: u64,
    /// Delta-race sanitizer state; `None` (the default) costs one branch
    /// per read/drive. `RefCell` because reads are recorded from
    /// [`Ctx::get`], which takes `&self`.
    race: Option<RefCell<RaceState>>,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("time", &self.time)
            .field("nets", &self.nets.len())
            .field("drivers", &self.drivers.len())
            .field("components", &self.components.len())
            .field("pending_events", &self.queue.len())
            .field("violations", &self.violations.len())
            .finish()
    }
}

impl Simulator {
    /// Creates an empty simulator with the given RNG seed.
    ///
    /// All stochastic behaviour (metastability resolution) flows from this
    /// seed, so identical seeds give identical runs.
    pub fn new(seed: u64) -> Self {
        Simulator {
            nets: Vec::new(),
            drivers: Vec::new(),
            components: Vec::new(),
            queue: EventQueue::default(),
            time: Time::ZERO,
            rng: StdRng::seed_from_u64(seed),
            violations: Vec::new(),
            waveforms: Vec::new(),
            max_events_per_instant: 2_000_000,
            events_processed: 0,
            wake_pending: Vec::new(),
            coalesced_wakes: 0,
            compiled_edge_evals: 0,
            compiled_gate_evals: 0,
            race: None,
        }
    }

    // ---- construction ----------------------------------------------------

    /// Creates a new net named `name` (names need not be unique; they label
    /// traces and violation reports).
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        self.add_net(NetLabel::Plain(name.into()))
    }

    /// Creates `width` nets named `name[0]`…`name[width-1]` (LSB first).
    ///
    /// The bits share one interned base name; the `name[i]` strings are
    /// rendered lazily on first [`Simulator::net_name`] lookup, so building
    /// wide datapaths does not allocate a formatted label per bit.
    pub fn bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        let base: Rc<str> = Rc::from(name);
        (0..width)
            .map(|i| {
                self.add_net(NetLabel::Bit {
                    base: Rc::clone(&base),
                    bit: i as u32,
                })
            })
            .collect()
    }

    fn add_net(&mut self, label: NetLabel) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net::new(label));
        self.waveforms.push(None);
        id
    }

    /// Attaches a new driver (initially contributing `Z`) to `net`.
    pub fn driver(&mut self, net: NetId) -> DriverId {
        let id = DriverId(self.drivers.len() as u32);
        self.drivers.push(Driver {
            net,
            value: Logic::Z,
            pending_seq: u64::MAX,
        });
        self.nets[net.0 as usize].drivers.push(id);
        id
    }

    /// Registers a component and subscribes it to `watch`ed nets. The
    /// component receives an initial wake at the current time so it can
    /// establish its outputs.
    pub fn add_component(&mut self, component: Box<dyn Component>, watch: &[NetId]) -> ComponentId {
        let id = ComponentId(self.components.len() as u32);
        self.components.push(Some(component));
        self.wake_pending.push(Time::MAX);
        for &n in watch {
            let w = &mut self.nets[n.0 as usize].watchers;
            if !w.contains(&id) {
                w.push(id);
            }
        }
        self.schedule_wake(id, self.time);
        id
    }

    /// Additionally subscribes an existing component to `net`.
    pub fn watch(&mut self, comp: ComponentId, net: NetId) {
        let w = &mut self.nets[net.0 as usize].watchers;
        if !w.contains(&comp) {
            w.push(comp);
        }
    }

    /// Removes a component from the simulation: its slot is emptied (any
    /// queued wake becomes a harmless no-op) and it is unsubscribed from
    /// every net, so future net changes stop generating wake events for
    /// it. Used by the compiled backend to supersede per-gate components
    /// with a region engine after elaboration; its drivers keep their
    /// last contribution.
    pub fn detach_component(&mut self, comp: ComponentId) {
        let idx = comp.0 as usize;
        self.components[idx] = None;
        for net in &mut self.nets {
            net.watchers.retain(|&w| w != comp);
        }
    }

    /// Enables waveform recording for `net` (see [`Simulator::waveform`]).
    pub fn trace(&mut self, net: NetId) {
        let idx = net.0 as usize;
        if !self.nets[idx].traced {
            self.nets[idx].traced = true;
            let mut wf = Waveform::new();
            wf.record(self.time, self.nets[idx].resolved);
            self.waveforms[idx] = Some(wf);
        }
    }

    /// Enables waveform recording for every net of a bus.
    pub fn trace_bus(&mut self, nets: &[NetId]) {
        for &n in nets {
            self.trace(n);
        }
    }

    // ---- inspection ------------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// Resolved value of `net`.
    pub fn value(&self, net: NetId) -> Logic {
        self.nets[net.0 as usize].resolved
    }

    /// Resolved value of a multi-bit bus (`nets[0]` = LSB).
    pub fn value_vec(&self, nets: &[NetId]) -> LogicVec {
        LogicVec::from_bits(&nets.iter().map(|&n| self.value(n)).collect::<Vec<_>>())
    }

    /// When `net` last changed resolved value.
    pub fn last_change(&self, net: NetId) -> Time {
        self.nets[net.0 as usize].last_change
    }

    /// How many times `net` has changed resolved value since construction.
    /// Always counted (no tracing needed); the raw material of
    /// dynamic-energy estimation (`mtf-timing`'s power module).
    pub fn toggles(&self, net: NetId) -> u64 {
        self.nets[net.0 as usize].toggles
    }

    /// Resets every net's toggle counter (e.g. after a warm-up phase, so an
    /// energy measurement covers only the steady state).
    pub fn reset_toggles(&mut self) {
        for n in &mut self.nets {
            n.toggles = 0;
        }
    }

    /// The name given to `net` at creation (bus-bit names are rendered on
    /// first lookup and cached).
    pub fn net_name(&self, net: NetId) -> &str {
        self.nets[net.0 as usize].name()
    }

    /// Number of nets created so far.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// The recorded waveform for `net`, if [`Simulator::trace`] was enabled.
    pub fn waveform(&self, net: NetId) -> Option<&Waveform> {
        self.waveforms[net.0 as usize].as_ref()
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations of one kind.
    pub fn violations_of(&self, kind: ViolationKind) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(move |v| v.kind == kind)
    }

    /// Discards recorded violations (e.g. those produced while a testbench
    /// initialises).
    pub fn clear_violations(&mut self) {
        self.violations.clear();
    }

    /// Total number of events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Snapshot of the kernel counters (queue depths, delta-ring activity,
    /// wake coalescing). Used by the bench binaries to report how hard the
    /// scheduler worked for a given experiment.
    pub fn stats(&self) -> SimStats {
        let q = self.queue.stats();
        SimStats {
            events_processed: self.events_processed,
            peak_queue_depth: q.peak_depth,
            coalesced_wakes: self.coalesced_wakes,
            delta_pushes: q.delta_pushes,
            peak_delta_depth: q.peak_delta_depth,
            wheel_cascades: q.cascades,
            overflow_events: q.overflow_pushes,
            compiled_edge_evals: self.compiled_edge_evals,
            compiled_gate_evals: self.compiled_gate_evals,
        }
    }

    /// Number of drivers attached to `net`, behavioural testbench drivers
    /// included. The static lint (`mtf-lint`) uses this to tell a genuinely
    /// floating input apart from a port driven by a behavioural component
    /// the netlist cannot see.
    pub fn driver_count(&self, net: NetId) -> usize {
        self.nets[net.0 as usize].drivers.len()
    }

    /// Number of components watching `net` (see [`Simulator::watch`]).
    /// `mtf-lint` uses this so an output consumed only behaviourally is
    /// not reported as unconnected.
    pub fn watcher_count(&self, net: NetId) -> usize {
        self.nets[net.0 as usize].watchers.len()
    }

    // ---- delta-race sanitizer ---------------------------------------------

    /// Turns on the delta-race sanitizer (see [`crate::race`]). Purely
    /// passive: scheduling and waveforms are identical to a plain run.
    /// Idempotent; recorded hazards survive repeated calls.
    pub fn enable_race_sanitizer(&mut self) {
        if self.race.is_none() {
            self.race = Some(RefCell::new(RaceState::default()));
        }
    }

    /// All same-instant conflicts recorded so far (always empty unless
    /// [`Simulator::enable_race_sanitizer`] was called).
    pub fn race_hazards(&self) -> Vec<RaceHazard> {
        self.race
            .as_ref()
            .map(|r| r.borrow().hazards().to_vec())
            .unwrap_or_default()
    }

    /// Number of recorded hazards of one kind.
    pub fn race_hazard_count(&self, kind: RaceHazardKind) -> usize {
        self.race
            .as_ref()
            .map(|r| {
                r.borrow()
                    .hazards()
                    .iter()
                    .filter(|h| h.kind == kind)
                    .count()
            })
            .unwrap_or(0)
    }

    /// Records a component-level net read (called by [`Ctx::get`], hence
    /// `&self`). Only non-watching reads are kept: a watcher is re-woken
    /// when the net changes, so it can never act on a stale value.
    pub(crate) fn note_read(&self, comp: ComponentId, net: NetId) {
        if let Some(race) = &self.race {
            if self.nets[net.0 as usize].watchers.contains(&comp) {
                return;
            }
            race.borrow_mut().note_read(self.time, net.0, comp);
        }
    }

    // ---- scheduling (also used by `Ctx`) ----------------------------------

    /// Schedules `driver` to contribute `value` after `delay`, cancelling
    /// any still-pending earlier schedule on the same driver (inertial
    /// behaviour).
    pub(crate) fn drive_in(&mut self, driver: DriverId, value: Logic, delay: Time) {
        let t = self.time + delay;
        let stamp = self.queue.next_seq();
        let seq = self.queue.push(
            t,
            EventKind::Drive {
                driver,
                value,
                stamp,
            },
        );
        debug_assert_eq!(stamp, seq);
        self.drivers[driver.0 as usize].pending_seq = seq;
    }

    /// External (testbench-level) drive scheduling: contributes `value` on
    /// `driver` at absolute time `at` (clamped to now). Unlike component
    /// drives these are *transport*-delay events — they are never cancelled
    /// by later schedules, so a testbench can pre-program a whole stimulus
    /// sequence up front.
    pub fn drive_at(&mut self, driver: DriverId, net: NetId, value: Logic, at: Time) {
        debug_assert_eq!(
            self.drivers[driver.0 as usize].net, net,
            "drive_at: driver {driver:?} is attached to a different net than {net:?}"
        );
        let t = at.max(self.time);
        self.queue.push(
            t,
            EventKind::Drive {
                driver,
                value,
                stamp: u64::MAX,
            },
        );
    }

    /// Applies `value` on `driver` *immediately*, without a queue event —
    /// exactly the state transition an uncancellable drive event landing
    /// at the current instant would perform (value-equal skip, sanitizer
    /// note, net recomputation, watcher wakes). Compiled-region engines
    /// use this to land gate outputs whose delay has elapsed; because the
    /// net/driver/watcher state transition is identical to
    /// [`apply_drive`](Self::apply_drive)'s, observables cannot diverge
    /// from the event path.
    pub(crate) fn commit_drive(&mut self, driver: DriverId, value: Logic) {
        // An engine-managed driver never has kernel-queued drive events,
        // so there is no pending_seq to consult: mirror the external
        // (`stamp == u64::MAX`) path of `apply_drive`.
        let d = &mut self.drivers[driver.0 as usize];
        if d.value == value {
            return;
        }
        d.value = value;
        let net = d.net;
        if let Some(race) = &self.race {
            let mut st = race.borrow_mut();
            if let Some(prev) = st.note_write(self.time, net.0, driver) {
                let h = RaceHazard {
                    kind: RaceHazardKind::WriteWrite,
                    time: self.time,
                    net: self.nets[net.0 as usize].name().to_owned(),
                    detail: format!(
                        "drivers #{} and #{} both changed their contribution \
                         within one delta cycle",
                        prev.0, driver.0
                    ),
                };
                st.push(h);
            }
        }
        self.recompute_net(net);
    }

    pub(crate) fn schedule_wake(&mut self, comp: ComponentId, at: Time) {
        let at = at.max(self.time);
        let idx = comp.0 as usize;
        if self.wake_pending[idx] == at {
            // A wake for this component at this instant is already queued
            // and will run after every net update of the instant — this
            // request is covered by it.
            self.coalesced_wakes += 1;
            return;
        }
        self.wake_pending[idx] = at;
        self.queue.push(at, EventKind::Wake { comp });
    }

    // ---- event loop --------------------------------------------------------

    /// Runs every event at or before `horizon`, same-instant cascades
    /// included. On success the simulator's clock is `horizon`, or stays
    /// where it was if `horizon` is earlier than [`now`](Self::now): the
    /// clock never moves backwards.
    ///
    /// Because each call drains whole instants, consecutive calls at
    /// increasing horizons process the same events in the same order as
    /// one call to the last horizon; a caller may step a run and stop once
    /// the outcome it reads is fixed.
    pub fn run_until(&mut self, horizon: Time) -> Result<(), SimError> {
        let mut events_this_instant: u64 = 0;
        let mut instant = self.time;
        // Combined peek-and-pop: a single occupancy scan per instant, and
        // the cursor never advances past `horizon`.
        while let Some(ev) = self.queue.pop_not_after(horizon) {
            if ev.time > instant {
                instant = ev.time;
                events_this_instant = 0;
            }
            events_this_instant += 1;
            self.events_processed += 1;
            if events_this_instant > self.max_events_per_instant {
                return Err(SimError::DeltaOverflow {
                    time: ev.time,
                    events: events_this_instant,
                });
            }
            self.time = ev.time;
            match ev.kind {
                EventKind::Drive {
                    driver,
                    value,
                    stamp,
                } => {
                    self.apply_drive(driver, value, stamp, ev.seq);
                }
                EventKind::Wake { comp } => {
                    // Retire the coalescing marker *before* evaluating, so a
                    // wake the component schedules for this same instant
                    // during eval (self-rewake) is queued, not absorbed.
                    let widx = comp.0 as usize;
                    if self.wake_pending[widx] == ev.time {
                        self.wake_pending[widx] = Time::MAX;
                    }
                    self.eval_component(comp);
                }
            }
        }
        self.time = self.time.max(horizon);
        Ok(())
    }

    /// Runs for `span` past the current time.
    pub fn run_for(&mut self, span: Time) -> Result<(), SimError> {
        let horizon = self.time + span;
        self.run_until(horizon)
    }

    fn apply_drive(&mut self, driver: DriverId, value: Logic, stamp: u64, _seq: u64) {
        let d = &mut self.drivers[driver.0 as usize];
        // Cancellation: `stamp == u64::MAX` marks externally scheduled
        // drives (never cancelled); otherwise only the latest scheduled
        // drive for this driver may apply.
        if stamp != u64::MAX && d.pending_seq != stamp {
            return;
        }
        if d.value == value {
            return;
        }
        d.value = value;
        let net = d.net;
        if let Some(race) = &self.race {
            let mut st = race.borrow_mut();
            if let Some(prev) = st.note_write(self.time, net.0, driver) {
                let h = RaceHazard {
                    kind: RaceHazardKind::WriteWrite,
                    time: self.time,
                    net: self.nets[net.0 as usize].name().to_owned(),
                    detail: format!(
                        "drivers #{} and #{} both changed their contribution \
                         within one delta cycle",
                        prev.0, driver.0
                    ),
                };
                st.push(h);
            }
        }
        self.recompute_net(net);
    }

    fn recompute_net(&mut self, net: NetId) {
        let idx = net.0 as usize;
        // Single-driver fast path: most nets have exactly one driver, and
        // `resolve(Z, v) == v`, so the fold collapses to a load.
        let resolved = match self.nets[idx].drivers.as_slice() {
            [d] => self.drivers[d.0 as usize].value,
            ds => ds
                .iter()
                .map(|&d| self.drivers[d.0 as usize].value)
                .fold(Logic::Z, Logic::resolve),
        };
        let now = self.time;
        let n = &mut self.nets[idx];
        if resolved == n.resolved {
            return;
        }
        n.resolved = resolved;
        n.last_change = now;
        n.toggles += 1;
        if n.traced {
            if let Some(wf) = self.waveforms[idx].as_mut() {
                wf.record(now, resolved);
            }
        }
        if let Some(race) = &self.race {
            let mut st = race.borrow_mut();
            for c in st.take_stale_readers(now, net.0) {
                let who = self.components[c.0 as usize]
                    .as_ref()
                    .map(|b| b.name().to_owned())
                    .unwrap_or_else(|| format!("component#{}", c.0));
                let h = RaceHazard {
                    kind: RaceHazardKind::ReadThenWrite,
                    time: now,
                    net: self.nets[idx].name().to_owned(),
                    detail: format!(
                        "'{who}' read the net earlier this instant without \
                         watching it, then the resolved value changed to {resolved:?}"
                    ),
                };
                st.push(h);
            }
        }
        // Notify watchers via wake events at the current instant. Borrowing
        // the watcher list, the queue and the coalescing markers as disjoint
        // fields lets this iterate in place — no clone of the watcher Vec
        // per net change.
        let now = self.time;
        let (nets, queue, wake_pending, coalesced) = (
            &self.nets,
            &mut self.queue,
            &mut self.wake_pending,
            &mut self.coalesced_wakes,
        );
        for &w in &nets[idx].watchers {
            let widx = w.0 as usize;
            if wake_pending[widx] == now {
                *coalesced += 1;
                continue;
            }
            wake_pending[widx] = now;
            queue.push(now, EventKind::Wake { comp: w });
        }
    }

    fn eval_component(&mut self, comp: ComponentId) {
        let idx = comp.0 as usize;
        let Some(mut c) = self.components[idx].take() else {
            // Re-entrant wake while the component is mid-eval cannot happen
            // (eval never re-enters the loop), but a stale duplicate wake for
            // a removed component is harmless.
            return;
        };
        {
            let mut ctx = Ctx {
                sim: self,
                me: comp,
            };
            c.eval(&mut ctx);
        }
        self.components[idx] = Some(c);
    }

    // ---- services for `Ctx` ------------------------------------------------

    pub(crate) fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    pub(crate) fn record_violation(&mut self, v: Violation) {
        self.violations.push(v);
    }

    pub(crate) fn note_compiled_pass(&mut self, gate_evals: u64) {
        self.compiled_edge_evals += 1;
        self.compiled_gate_evals += gate_evals;
    }
}

//! Multi-tenant aggregation service (DESIGN §15).
//!
//! Every engine in this crate was born one-shot: one job, one tensor
//! stream, fixed membership. The north star is an aggregator fleet
//! serving many users at once, so this module turns the sharded
//! deployment into a *daemon-shaped service*:
//!
//! * [`TenantService`] — a long-running fleet of `S` aggregator shards.
//!   Each shard owns one shared ingress port and a demux thread that
//!   routes frames to per-job protocol engines by the **tenant stream
//!   id** carried in every tagged Block frame
//!   ([`omnireduce_transport::codec`]: disc 7, stream at offset 8).
//!   Stream `0` is reserved for the legacy single-job deployment and is
//!   never assigned to a tenant, so pre-tenancy byte layouts survive
//!   unchanged.
//! * [`JobRegistry`] — capacity-based admission control: a job is
//!   admitted only while the live-tenant cap
//!   (`OMNIREDUCE_MAX_TENANTS`), the slot pool, and the node-id space
//!   all have room. Admission assigns the stream id, carves per-worker
//!   ingress node ids, registers demux routes, and builds one virtual
//!   engine port per shard with the tenant's own geometry; the engines
//!   behind them — [`crate::OmniAggregator`] or
//!   [`crate::RecoveryAggregator`] per [`TenantSpec::engine`] — start
//!   when the job runs.
//! * [`SlotScheduler`] / [`WfqState`] — the shared slot pool (the
//!   paper's bounded switch slot table, DESIGN §1) under weighted fair
//!   queueing. A tenant acquires its round's slot need before starting
//!   a round and releases it after; under contention grants follow
//!   virtual finish tags (weights from [`TenantSpec::weight`] or
//!   `OMNIREDUCE_TENANT_WEIGHTS`), with strict head-of-line blocking so
//!   no tenant starves. Byte quotas ([`TenantSpec::quota`]) convert
//!   overuse into *virtual-time debt* — future grants are delayed
//!   (backpressure), payloads are never touched (no corruption).
//! * [`TenantHandle`] — one admitted job. `run_lossless` /
//!   `run_recovery` are one generic body: the group driver
//!   ([`crate::group::run`]) deploys the tenant's workers over virtual
//!   lanes and its per-shard engines over the virtual ports, in
//!   lockstep with the scheduler — acquire, start barrier, end barrier,
//!   release with the round's byte count. Per-tenant chaos
//!   ([`TenantSpec::plan`]) wraps the tenant's *virtual* endpoints,
//!   whose node ids match a solo deployment of the same geometry — so a
//!   tenant's keyed fates are identical whether it runs alone or next
//!   to a thousand neighbours (the isolation invariant the
//!   `tenant_interleave` battery checks bit-for-bit).
//!
//! Isolation model: tenants never share protocol state. The shared
//! surfaces are (a) the per-shard ingress queue + demux thread, which
//! only routes, (b) the slot pool, which only delays, and (c) the
//! node-id space, handed out disjointly at admission. Telemetry is
//! namespaced per tenant: every handle owns a private
//! [`Telemetry`] registry, while the service keeps its own
//! `core.tenant.*` counters for admission, demux and scheduling events.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use omnireduce_telemetry::{Counter, Telemetry, TelemetrySnapshot};
use omnireduce_tensor::Tensor;
use omnireduce_transport::fault::{ChaosNetwork, FaultPlan};
use omnireduce_transport::{Message, NodeId, ShardBond, Transport, TransportError};

use crate::config::OmniConfig;
use crate::group::{
    self, ready, Engine, GroupOutcome, GroupResult, Lossless, MakeEndpoint, Nodes, Recovery,
    RoundHook,
};
use crate::shard::ShardMap;

/// Fixed-point scale of the virtual clock (per-slot cost is
/// `SCALE / weight`, so weights up to `SCALE` stay meaningful).
const WFQ_SCALE: u64 = 1 << 20;

/// Demux poll slice: how often a shard's router rechecks the stop flag.
const DEMUX_POLL: Duration = Duration::from_millis(10);

/// Default live-tenant cap when `OMNIREDUCE_MAX_TENANTS` is unset.
pub const DEFAULT_MAX_TENANTS: usize = 256;

// ---------------------------------------------------------------------
// Env knobs
// ---------------------------------------------------------------------

/// Parses `OMNIREDUCE_MAX_TENANTS`: a positive integer, else the
/// default. Zero and garbage fall back rather than bricking the
/// service at construction.
pub fn parse_max_tenants(raw: Option<&str>) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_MAX_TENANTS)
}

/// Parses `OMNIREDUCE_TENANT_WEIGHTS`: a comma-separated cycle of
/// positive integers applied (in admission order) to tenants that did
/// not pin a weight. Empty/invalid entries are skipped; an empty result
/// means "everyone weighs 1".
pub fn parse_tenant_weights(raw: Option<&str>) -> Vec<u64> {
    raw.map(|s| {
        s.split(',')
            .filter_map(|tok| tok.trim().parse::<u64>().ok())
            .filter(|&w| w > 0)
            .collect()
    })
    .unwrap_or_default()
}

// ---------------------------------------------------------------------
// Weighted-fair slot scheduler
// ---------------------------------------------------------------------

/// The deterministic WFQ core: a pure state machine over the shared
/// slot pool, driven by `enqueue` / `pump` / `complete`. The fairness
/// property battery exercises this type directly (no threads, no
/// clocks), while [`SlotScheduler`] wraps it for the live service.
///
/// Invariants:
/// * **Strict head-of-line** — `pump` grants pending requests in
///   virtual-finish-tag order and stops at the first one that does not
///   fit the free pool. No bypass means no starvation: once a request
///   holds the minimum tag it is granted as soon as capacity frees.
/// * **Weighted shares** — a request for `n` slots advances its
///   tenant's finish tag by `n · SCALE / weight`, so backlogged
///   tenants are granted slots proportionally to their weights.
/// * **Quota debt** — `complete` converts bytes beyond the tenant's
///   per-round quota into extra virtual time charged to the *next*
///   enqueue. Overusers drift later in the grant order; their frames
///   are never dropped or altered.
pub struct WfqState {
    capacity: u64,
    free: u64,
    vclock: u64,
    next_ticket: u64,
    tenants: HashMap<u16, TenantSched>,
    pending: Vec<PendingReq>,
    /// Tickets granted but not yet observed by their owner — the
    /// blocking facade's waiters claim theirs via [`take_granted`]
    /// (`pump` may run in *any* thread holding the lock, so the grant
    /// record must live in the shared state, not a caller's stack).
    ///
    /// [`take_granted`]: WfqState::take_granted
    granted_tickets: std::collections::HashSet<u64>,
    /// Total grants issued (mirrors `core.tenant.sched.grants`).
    grants: u64,
}

struct TenantSched {
    weight: u64,
    /// Virtual finish tag of this tenant's last enqueued request.
    finish: u64,
    /// Bytes-per-round cap; `None` = unmetered.
    quota: Option<u64>,
    /// Virtual time owed for past quota overuse, folded into the next
    /// request's tag.
    debt: u64,
    /// Times `complete` found the tenant over quota.
    throttles: u64,
}

struct PendingReq {
    ticket: u64,
    stream: u16,
    slots: u64,
    /// Virtual start time (the grant advances the clock to this, per
    /// start-time fair queueing — advancing to the *finish* tag would
    /// let one large-cost grant catapult the clock past every
    /// backlogged tenant's finish and collapse shares to round-robin).
    start: u64,
    tag: u64,
}

/// One granted request, in grant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Ticket returned by [`WfqState::enqueue`].
    pub ticket: u64,
    /// The granted tenant's stream id.
    pub stream: u16,
    /// Slots handed out (returned via [`WfqState::complete`]).
    pub slots: u64,
}

impl WfqState {
    /// A pool of `capacity` slots, no tenants.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "slot pool must not be empty");
        WfqState {
            capacity,
            free: capacity,
            vclock: 0,
            next_ticket: 0,
            tenants: HashMap::new(),
            pending: Vec::new(),
            granted_tickets: std::collections::HashSet::new(),
            grants: 0,
        }
    }

    /// Registers a tenant before its first request.
    ///
    /// # Panics
    /// Panics on a zero weight or a duplicate stream.
    pub fn register(&mut self, stream: u16, weight: u64, quota: Option<u64>) {
        assert!(weight > 0, "tenant weight must be positive");
        let prev = self.tenants.insert(
            stream,
            TenantSched {
                weight,
                finish: 0,
                quota,
                debt: 0,
                throttles: 0,
            },
        );
        assert!(prev.is_none(), "stream {stream} registered twice");
    }

    /// Removes a tenant; its pending requests (if any) are dropped.
    pub fn deregister(&mut self, stream: u16) {
        self.tenants.remove(&stream);
        self.pending.retain(|p| p.stream != stream);
    }

    /// Queues a request for `slots` slots and returns its ticket. The
    /// finish tag is fixed here (WFQ start = max of the virtual clock
    /// and the tenant's previous finish), so arrival order inside one
    /// tenant is FIFO and quota debt lands on exactly one request.
    pub fn enqueue(&mut self, stream: u16, slots: u64) -> u64 {
        assert!(slots > 0, "a round needs at least one slot");
        assert!(
            slots <= self.capacity,
            "request for {slots} slots exceeds the pool ({})",
            self.capacity
        );
        let t = self
            .tenants
            .get_mut(&stream)
            .unwrap_or_else(|| panic!("stream {stream} not registered"));
        let start = self.vclock.max(t.finish);
        let cost = slots * WFQ_SCALE / t.weight + t.debt;
        t.debt = 0;
        let tag = start + cost;
        t.finish = tag;
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.pending.push(PendingReq {
            ticket,
            stream,
            slots,
            start,
            tag,
        });
        ticket
    }

    /// Grants every head-of-line request that fits the free pool, in
    /// finish-tag order (ties broken by arrival), and returns them in
    /// grant order. Stops at the first request that does not fit —
    /// later, smaller requests never jump the queue.
    pub fn pump(&mut self) -> Vec<Grant> {
        let mut granted = Vec::new();
        loop {
            let head = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| (p.tag, p.ticket))
                .map(|(i, _)| i);
            let Some(i) = head else { break };
            if self.pending[i].slots > self.free {
                break;
            }
            let p = self.pending.remove(i);
            self.free -= p.slots;
            self.vclock = self.vclock.max(p.start);
            self.grants += 1;
            self.granted_tickets.insert(p.ticket);
            granted.push(Grant {
                ticket: p.ticket,
                stream: p.stream,
                slots: p.slots,
            });
        }
        granted
    }

    /// Returns `slots` to the pool and meters `bytes` against the
    /// tenant's quota; overuse becomes virtual-time debt on its next
    /// request. Returns `true` when the round was throttled.
    pub fn complete(&mut self, stream: u16, slots: u64, bytes: u64) -> bool {
        self.free += slots;
        assert!(self.free <= self.capacity, "double release");
        let Some(t) = self.tenants.get_mut(&stream) else {
            return false;
        };
        match t.quota {
            Some(q) if bytes > q => {
                // Charge the overshoot at the tenant's own rate: a round
                // that used 2× its quota costs one extra round of
                // virtual time, scaling linearly.
                let over = bytes - q;
                let base = u128::from(slots) * u128::from(WFQ_SCALE) / u128::from(t.weight);
                let penalty = (base * u128::from(over) / u128::from(q.max(1))) as u64;
                t.debt = t.debt.saturating_add(penalty.max(1));
                t.throttles += 1;
                true
            }
            _ => false,
        }
    }

    /// Claims `ticket`'s grant if one was issued (by any pumper) and
    /// not yet observed. The blocking facade's wait loop turns on this.
    pub fn take_granted(&mut self, ticket: u64) -> bool {
        self.granted_tickets.remove(&ticket)
    }

    /// Free slots right now.
    pub fn free(&self) -> u64 {
        self.free
    }

    /// Queued (not yet granted) requests.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Total grants issued so far.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Outstanding quota debt of `stream`, in virtual time.
    pub fn debt(&self, stream: u16) -> u64 {
        self.tenants.get(&stream).map_or(0, |t| t.debt)
    }

    /// Times `stream` was found over quota.
    pub fn throttles(&self, stream: u16) -> u64 {
        self.tenants.get(&stream).map_or(0, |t| t.throttles)
    }
}

/// Thread-safe blocking facade over [`WfqState`] for the live service:
/// `acquire` parks the calling tenant until its request is granted,
/// `release` returns the slots and wakes the queue.
pub struct SlotScheduler {
    state: Mutex<WfqState>,
    cv: Condvar,
    grants: Counter,
    throttles: Counter,
}

impl SlotScheduler {
    /// A scheduler over `capacity` slots with detached counters.
    pub fn new(capacity: u64) -> Self {
        Self::with_counters(capacity, Counter::detached(), Counter::detached())
    }

    fn with_counters(capacity: u64, grants: Counter, throttles: Counter) -> Self {
        SlotScheduler {
            state: Mutex::new(WfqState::new(capacity)),
            cv: Condvar::new(),
            grants,
            throttles,
        }
    }

    /// Registers a tenant (see [`WfqState::register`]).
    pub fn register(&self, stream: u16, weight: u64, quota: Option<u64>) {
        self.state
            .lock()
            .expect("scheduler poisoned")
            .register(stream, weight, quota);
    }

    /// Deregisters a tenant and wakes waiters (capacity bookkeeping may
    /// have changed shape).
    pub fn deregister(&self, stream: u16) {
        self.state
            .lock()
            .expect("scheduler poisoned")
            .deregister(stream);
        self.cv.notify_all();
    }

    /// Blocks until the scheduler grants `slots` to `stream`.
    pub fn acquire(&self, stream: u16, slots: u64) {
        let mut st = self.state.lock().expect("scheduler poisoned");
        let ticket = st.enqueue(stream, slots);
        loop {
            // Any thread holding the lock may pump grants for *other*
            // tickets; those land in the shared granted set, and their
            // owners claim them after the wake-up below.
            let pumped = st.pump().len();
            self.grants.add(pumped as u64);
            if pumped > 0 {
                self.cv.notify_all();
            }
            if st.take_granted(ticket) {
                return;
            }
            st = self.cv.wait(st).expect("scheduler poisoned");
        }
    }

    /// Returns `slots` and meters `bytes` against the quota.
    pub fn release(&self, stream: u16, slots: u64, bytes: u64) {
        let throttled = self
            .state
            .lock()
            .expect("scheduler poisoned")
            .complete(stream, slots, bytes);
        if throttled {
            self.throttles.inc();
        }
        self.cv.notify_all();
    }

    /// Times `stream` was found over quota (test/diagnostic hook).
    pub fn throttles_of(&self, stream: u16) -> u64 {
        self.state
            .lock()
            .expect("scheduler poisoned")
            .throttles(stream)
    }
}

// ---------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------

/// Which protocol engine serves a tenant's shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantEngine {
    /// Algorithm 1 over reliable lanes ([`crate::OmniAggregator`]).
    Lossless,
    /// Algorithm 2 with retransmission ([`crate::RecoveryAggregator`]).
    Recovery,
}

/// Everything a job brings to admission.
pub struct TenantSpec {
    /// The tenant's own geometry: `num_workers`, tensor length, block
    /// size, fusion width, streams per shard. `num_aggregators` must
    /// equal the service's shard count, and `hot_standby` must be off
    /// (the service owns availability, not the tenant).
    pub cfg: OmniConfig,
    /// Engine flavour for this job's per-shard aggregators.
    pub engine: TenantEngine,
    /// WFQ weight. `0` = take the next entry of
    /// `OMNIREDUCE_TENANT_WEIGHTS` (cycled), or 1 when unset.
    pub weight: u64,
    /// Bytes-per-round cap; overuse delays future grants
    /// (backpressure), never corrupts frames.
    pub quota: Option<u64>,
    /// Per-tenant chaos plan, applied to the tenant's *virtual*
    /// endpoints on both sides — node ids match a solo run of the same
    /// geometry, so keyed fates replay identically.
    pub plan: Option<FaultPlan>,
}

impl TenantSpec {
    /// A lossless tenant with default weight, no quota, no chaos.
    pub fn lossless(cfg: OmniConfig) -> Self {
        TenantSpec {
            cfg,
            engine: TenantEngine::Lossless,
            weight: 0,
            quota: None,
            plan: None,
        }
    }

    /// A recovery tenant with default weight, no quota, no chaos.
    pub fn recovery(cfg: OmniConfig) -> Self {
        TenantSpec {
            cfg,
            engine: TenantEngine::Recovery,
            weight: 0,
            quota: None,
            plan: None,
        }
    }

    /// Pins the WFQ weight.
    pub fn with_weight(mut self, w: u64) -> Self {
        self.weight = w;
        self
    }

    /// Caps wire bytes per round.
    pub fn with_quota(mut self, bytes_per_round: u64) -> Self {
        self.quota = Some(bytes_per_round);
        self
    }

    /// Attaches a chaos plan to the tenant's virtual endpoints.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }
}

/// Why admission said no.
#[derive(Debug)]
pub enum AdmissionError {
    /// The live-tenant cap (`OMNIREDUCE_MAX_TENANTS`) is reached.
    TooManyTenants {
        /// The configured cap.
        limit: usize,
    },
    /// The tenant's `num_aggregators` does not match the fleet.
    ShardMismatch {
        /// Shards the fleet runs.
        expected: usize,
        /// Shards the spec asked for.
        got: usize,
    },
    /// One round of this job needs more slots than the pool holds — it
    /// could never be scheduled.
    SlotsExceedPool {
        /// Slots the job's round occupies.
        need: u64,
        /// Total pool capacity.
        capacity: u64,
    },
    /// The u16 stream-id / ingress-node space is exhausted.
    AddressSpaceExhausted,
    /// Tenants may not bring their own hot standby.
    StandbyUnsupported,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::TooManyTenants { limit } => {
                write!(f, "live-tenant cap reached ({limit})")
            }
            AdmissionError::ShardMismatch { expected, got } => {
                write!(f, "tenant wants {got} shards, fleet has {expected}")
            }
            AdmissionError::SlotsExceedPool { need, capacity } => {
                write!(f, "round needs {need} slots, pool holds {capacity}")
            }
            AdmissionError::AddressSpaceExhausted => {
                write!(f, "stream/node id space exhausted")
            }
            AdmissionError::StandbyUnsupported => {
                write!(f, "per-tenant hot standby is not supported")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

// ---------------------------------------------------------------------
// Virtual transports
// ---------------------------------------------------------------------

/// Worker-side virtual lane: one per (tenant worker, shard). Presents
/// the tenant's solo node ids (`local_id()` = virtual wid, peer =
/// `W + s`) while physically sending onto the shard's shared ingress
/// queue, stamped with the worker's service-unique ingress node id.
pub struct TenantLane {
    virt_local: NodeId,
    real_local: NodeId,
    virt_agg: NodeId,
    ingress: Sender<(NodeId, Message)>,
    rx: Receiver<(NodeId, Message)>,
}

impl Transport for TenantLane {
    fn local_id(&self) -> NodeId {
        self.virt_local
    }

    fn send(&self, peer: NodeId, msg: &Message) -> Result<(), TransportError> {
        if peer != self.virt_agg {
            return Err(TransportError::UnknownPeer(peer));
        }
        self.ingress
            .send((self.real_local, msg.clone()))
            .map_err(|_| TransportError::Disconnected)
    }

    fn recv(&self) -> Result<(NodeId, Message), TransportError> {
        self.rx.recv().map_err(|_| TransportError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(Some(m)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }
}

/// Engine-side virtual port: one per (tenant, shard). `local_id()` is
/// the tenant's virtual aggregator node (`W + s`); receives are fed by
/// the shard demux (sender already translated to the virtual wid) and
/// sends go straight to the addressed worker's inbox for this shard.
struct JobPort {
    virt_local: NodeId,
    rx: Receiver<(NodeId, Message)>,
    /// `out[w]` = worker `w`'s inbox on this shard.
    out: Vec<Sender<(NodeId, Message)>>,
}

impl Transport for JobPort {
    fn local_id(&self) -> NodeId {
        self.virt_local
    }

    fn send(&self, peer: NodeId, msg: &Message) -> Result<(), TransportError> {
        let tx = self
            .out
            .get(peer.index())
            .ok_or(TransportError::UnknownPeer(peer))?;
        tx.send((self.virt_local, msg.clone()))
            .map_err(|_| TransportError::Disconnected)
    }

    fn recv(&self) -> Result<(NodeId, Message), TransportError> {
        self.rx.recv().map_err(|_| TransportError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(Some(m)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }
}

// ---------------------------------------------------------------------
// Service internals
// ---------------------------------------------------------------------

/// Per-shard routing state shared between admission and the demux
/// threads.
struct RouteTable {
    /// `by_stream[s][stream]` = engine ingress of that tenant's shard-s
    /// aggregator.
    by_stream: Vec<HashMap<u16, Sender<(NodeId, Message)>>>,
    /// Ingress node id → (tenant stream, virtual wid).
    by_node: HashMap<u16, (u16, u16)>,
}

struct DemuxCounters {
    frames: Counter,
    unknown_sender: Counter,
    misrouted: Counter,
    dead_route: Counter,
}

struct ServiceShared {
    routes: Mutex<RouteTable>,
    scheduler: SlotScheduler,
    stop: AtomicBool,
    live: AtomicUsize,
    completed: Counter,
}

/// Registry view of admission state (the tentpole's `JobRegistry`):
/// owns the caps and the id allocators. Kept separate from
/// [`TenantService`]'s runtime plumbing so the admission rules are
/// testable without spawning threads.
pub struct JobRegistry {
    max_tenants: usize,
    default_weights: Vec<u64>,
    admitted_total: usize,
    next_stream: u32,
    next_node: u32,
}

impl JobRegistry {
    /// A registry honouring the env knobs (`OMNIREDUCE_MAX_TENANTS`,
    /// `OMNIREDUCE_TENANT_WEIGHTS`).
    pub fn from_env() -> Self {
        JobRegistry::with_limits(
            parse_max_tenants(std::env::var("OMNIREDUCE_MAX_TENANTS").ok().as_deref()),
            parse_tenant_weights(std::env::var("OMNIREDUCE_TENANT_WEIGHTS").ok().as_deref()),
        )
    }

    /// A registry with explicit caps (tests; env-free).
    pub fn with_limits(max_tenants: usize, default_weights: Vec<u64>) -> Self {
        assert!(max_tenants > 0, "tenant cap must be positive");
        JobRegistry {
            max_tenants,
            default_weights,
            admitted_total: 0,
            // Stream 0 is the legacy single-job stream; the first
            // tenant gets stream 1.
            next_stream: 1,
            next_node: 0,
        }
    }

    /// The live-tenant cap.
    pub fn max_tenants(&self) -> usize {
        self.max_tenants
    }

    /// Resolves the WFQ weight for the next admission: a pinned spec
    /// weight wins; otherwise the env weight cycle, else 1.
    fn resolve_weight(&self, pinned: u64) -> u64 {
        if pinned > 0 {
            return pinned;
        }
        if self.default_weights.is_empty() {
            return 1;
        }
        self.default_weights[self.admitted_total % self.default_weights.len()]
    }

    /// Checks the caps and, on success, allocates (stream id, ingress
    /// node base) for a job with `workers` workers.
    fn allocate(&mut self, live: usize, workers: usize) -> Result<(u16, u16), AdmissionError> {
        if live >= self.max_tenants {
            return Err(AdmissionError::TooManyTenants {
                limit: self.max_tenants,
            });
        }
        if self.next_stream > u16::MAX as u32 || self.next_node + workers as u32 > u16::MAX as u32 {
            return Err(AdmissionError::AddressSpaceExhausted);
        }
        let stream = self.next_stream as u16;
        let base = self.next_node as u16;
        self.next_stream += 1;
        self.next_node += workers as u32;
        self.admitted_total += 1;
        Ok((stream, base))
    }
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// A long-running multi-tenant aggregation fleet: `shards` demux
/// threads sharing one slot pool, multiplexing any number of admitted
/// jobs by tenant stream id.
pub struct TenantService {
    shards: usize,
    ingress: Vec<Sender<(NodeId, Message)>>,
    demux: Vec<JoinHandle<()>>,
    shared: Arc<ServiceShared>,
    registry: JobRegistry,
    telemetry: Telemetry,
    admitted: Counter,
    rejected: Counter,
}

impl TenantService {
    /// Starts a fleet of `shards` aggregator shards over a pool of
    /// `slot_capacity` slots, honouring the env knobs.
    pub fn new(shards: usize, slot_capacity: u64) -> Self {
        Self::with_registry(shards, slot_capacity, JobRegistry::from_env())
    }

    /// Starts the fleet with an explicit [`JobRegistry`] (tests pin the
    /// caps here instead of mutating process env).
    pub fn with_registry(shards: usize, slot_capacity: u64, registry: JobRegistry) -> Self {
        assert!(shards > 0, "a fleet needs at least one shard");
        let telemetry = Telemetry::new();
        let scheduler = SlotScheduler::with_counters(
            slot_capacity,
            telemetry.counter("core.tenant.sched.grants"),
            telemetry.counter("core.tenant.sched.throttles"),
        );
        let shared = Arc::new(ServiceShared {
            routes: Mutex::new(RouteTable {
                by_stream: (0..shards).map(|_| HashMap::new()).collect(),
                by_node: HashMap::new(),
            }),
            scheduler,
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            completed: telemetry.counter("core.tenant.completed"),
        });
        let mut ingress = Vec::with_capacity(shards);
        let mut demux = Vec::with_capacity(shards);
        for s in 0..shards {
            let (tx, rx) = unbounded::<(NodeId, Message)>();
            ingress.push(tx);
            let shared = shared.clone();
            let counters = DemuxCounters {
                frames: telemetry.counter("core.tenant.demux.frames"),
                unknown_sender: telemetry.counter("core.tenant.demux.unknown_sender"),
                misrouted: telemetry.counter("core.tenant.demux.misrouted"),
                dead_route: telemetry.counter("core.tenant.demux.dead_route"),
            };
            demux.push(
                thread::Builder::new()
                    .name(format!("tenant-demux{s}"))
                    .spawn(move || Self::demux_loop(s, rx, shared, counters))
                    .expect("failed to spawn demux thread"),
            );
        }
        TenantService {
            shards,
            ingress,
            demux,
            shared,
            registry,
            admitted: telemetry.counter("core.tenant.admitted"),
            rejected: telemetry.counter("core.tenant.rejected"),
            telemetry,
        }
    }

    /// Number of aggregator shards in the fleet.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The service's own telemetry namespace (`core.tenant.*`).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Jobs currently admitted and not yet finished.
    pub fn live_tenants(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// One shard's router: pull a frame off the shared ingress, find
    /// its tenant — Block frames by the stream id on the wire, control
    /// frames by the sender's ingress node — translate the sender to
    /// the tenant's virtual wid, and forward. Routing is the *only*
    /// thing that happens here: payloads are never inspected beyond the
    /// header, so one tenant's traffic cannot alter another's.
    fn demux_loop(
        shard: usize,
        rx: Receiver<(NodeId, Message)>,
        shared: Arc<ServiceShared>,
        counters: DemuxCounters,
    ) {
        loop {
            match rx.recv_timeout(DEMUX_POLL) {
                Ok((from, msg)) => {
                    counters.frames.inc();
                    let routes = shared.routes.lock().expect("route table poisoned");
                    let Some(&(stream, virt_wid)) = routes.by_node.get(&from.0) else {
                        counters.unknown_sender.inc();
                        continue;
                    };
                    // The wire's stream id must agree with admission's
                    // sender map — a mismatch is a cross-tenant frame
                    // and is dropped, not delivered.
                    if let Message::Block(p) = &msg {
                        if p.stream != stream {
                            counters.misrouted.inc();
                            continue;
                        }
                    }
                    match routes.by_stream[shard].get(&stream) {
                        Some(tx) => {
                            if tx.send((NodeId(virt_wid), msg)).is_err() {
                                // Engine already wound down (e.g. the
                                // tenant aborted); late frames die here.
                                counters.dead_route.inc();
                            }
                        }
                        None => counters.dead_route.inc(),
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if shared.stop.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Admits a job: checks the caps, assigns its stream id and ingress
    /// nodes, registers demux routes and the scheduler entry, and builds
    /// one engine port per shard. The returned handle runs the job.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<TenantHandle, AdmissionError> {
        let check = || -> Result<(), AdmissionError> {
            if spec.cfg.num_aggregators != self.shards {
                return Err(AdmissionError::ShardMismatch {
                    expected: self.shards,
                    got: spec.cfg.num_aggregators,
                });
            }
            if spec.cfg.hot_standby {
                return Err(AdmissionError::StandbyUnsupported);
            }
            Ok(())
        };
        if let Err(e) = check() {
            self.rejected.inc();
            return Err(e);
        }
        spec.cfg.validate();
        let slots_per_round = ShardMap::new(&spec.cfg).layout().active_streams().count() as u64;
        let capacity = {
            let st = self
                .shared
                .scheduler
                .state
                .lock()
                .expect("scheduler poisoned");
            st.capacity
        };
        if slots_per_round > capacity {
            self.rejected.inc();
            return Err(AdmissionError::SlotsExceedPool {
                need: slots_per_round,
                capacity,
            });
        }

        let live = self.shared.live.load(Ordering::SeqCst);
        let workers = spec.cfg.num_workers;
        let (stream, node_base) = match self.registry.allocate(live, workers) {
            Ok(ids) => ids,
            Err(e) => {
                self.rejected.inc();
                return Err(e);
            }
        };
        let weight = self.registry.resolve_weight(spec.weight);
        let cfg = spec.cfg.clone().with_stream_id(stream);

        // Build the virtual fabric: per-worker inboxes per shard, one
        // engine port per shard, ingress-node routes for the demux.
        let mut lanes: Vec<Vec<TenantLane>> = (0..workers).map(|_| Vec::new()).collect();
        let mut ports = Vec::with_capacity(self.shards);
        {
            let mut routes = self.shared.routes.lock().expect("route table poisoned");
            for w in 0..workers {
                routes
                    .by_node
                    .insert(node_base + w as u16, (stream, w as u16));
            }
            for s in 0..self.shards {
                let (engine_tx, engine_rx) = unbounded::<(NodeId, Message)>();
                routes.by_stream[s].insert(stream, engine_tx);
                let mut out = Vec::with_capacity(workers);
                for (w, worker_lanes) in lanes.iter_mut().enumerate() {
                    let (inbox_tx, inbox_rx) = unbounded::<(NodeId, Message)>();
                    out.push(inbox_tx);
                    worker_lanes.push(TenantLane {
                        virt_local: NodeId(w as u16),
                        real_local: NodeId(node_base + w as u16),
                        virt_agg: NodeId(cfg.aggregator_node(s)),
                        ingress: self.ingress[s].clone(),
                        rx: inbox_rx,
                    });
                }
                ports.push(JobPort {
                    virt_local: NodeId(cfg.aggregator_node(s)),
                    rx: engine_rx,
                    out,
                });
            }
        }

        self.shared.scheduler.register(stream, weight, spec.quota);
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        self.admitted.inc();

        Ok(TenantHandle {
            stream,
            node_base,
            cfg,
            engine: spec.engine,
            plan: spec.plan,
            slots_per_round: slots_per_round.max(1),
            lanes,
            ports,
            shared: self.shared.clone(),
            telemetry: Telemetry::new(),
        })
    }

    /// Winds the fleet down: stops the demux threads and returns the
    /// service telemetry. Call after every handle has finished.
    pub fn shutdown(self) -> TelemetrySnapshot {
        self.shared.stop.store(true, Ordering::SeqCst);
        drop(self.ingress);
        for h in self.demux {
            h.join().expect("demux thread panicked");
        }
        self.telemetry.snapshot()
    }
}

// ---------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------

/// One admitted job. Consumed by `run_lossless` / `run_recovery`.
pub struct TenantHandle {
    stream: u16,
    node_base: u16,
    cfg: OmniConfig,
    engine: TenantEngine,
    plan: Option<FaultPlan>,
    slots_per_round: u64,
    /// `lanes[w][s]` = worker `w`'s virtual lane to shard `s`.
    lanes: Vec<Vec<TenantLane>>,
    /// `ports[s]` = the engine port of shard `s`.
    ports: Vec<JobPort>,
    shared: Arc<ServiceShared>,
    /// Per-tenant telemetry namespace: engines and workers of this job
    /// all record here; the service's registry never mixes in.
    telemetry: Telemetry,
}

impl std::fmt::Debug for TenantHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantHandle")
            .field("stream", &self.stream)
            .field("workers", &self.cfg.num_workers)
            .field("slots_per_round", &self.slots_per_round)
            .finish_non_exhaustive()
    }
}

/// A tenant's group run (a [`GroupResult`] or a [`GroupOutcome`], which
/// it derefs to) with what the tenant's lockstep and wind-down add.
pub struct TenantRun<R> {
    /// The group run.
    pub run: R,
    /// Wall time of each round, grant to completion.
    pub round_nanos: Vec<u64>,
    /// The tenant's private telemetry, snapshotted at wind-down.
    pub telemetry: TelemetrySnapshot,
    /// The stream id admission assigned.
    pub stream: u16,
}

impl<R> Deref for TenantRun<R> {
    type Target = R;
    fn deref(&self) -> &R {
        &self.run
    }
}

impl<R> DerefMut for TenantRun<R> {
    fn deref_mut(&mut self) -> &mut R {
        &mut self.run
    }
}

/// Paces a tenant's lockstep rounds through the shared slot scheduler:
/// a round starts once its slots are granted, and returns them metered
/// by the bytes it sent.
struct SchedulerPace<'a> {
    scheduler: &'a SlotScheduler,
    stream: u16,
    slots: u64,
    round_nanos: Vec<u64>,
}

impl RoundHook for SchedulerPace<'_> {
    fn begin(&mut self) {
        self.scheduler.acquire(self.stream, self.slots);
    }

    fn end(&mut self, bytes: u64, nanos: u64) {
        self.scheduler.release(self.stream, self.slots, bytes);
        self.round_nanos.push(nanos);
    }
}

impl TenantHandle {
    /// The stream id admission assigned (nonzero; `0` is the legacy
    /// single-job stream).
    pub fn stream(&self) -> u16 {
        self.stream
    }

    /// The tenant's effective config (stream id stamped).
    pub fn cfg(&self) -> &OmniConfig {
        &self.cfg
    }

    /// Slots one round of this job occupies in the shared pool.
    pub fn slots_per_round(&self) -> u64 {
        self.slots_per_round
    }

    /// The tenant's private telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs `inputs[w]` rounds of the **lossless** engine through the
    /// service, round-locked with the slot scheduler.
    ///
    /// # Panics
    /// Panics when the spec's engine is not [`TenantEngine::Lossless`],
    /// shapes don't match, or a worker or engine fails — after the
    /// tenant has wound down, so co-tenants never hang on our abort.
    pub fn run_lossless(self, inputs: Vec<Vec<Tensor>>) -> TenantRun<GroupResult<Lossless>> {
        assert_eq!(
            self.engine,
            TenantEngine::Lossless,
            "tenant was admitted with the recovery engine"
        );
        self.run(inputs, GroupOutcome::<Lossless>::expect_ok)
    }

    /// Runs `inputs[w]` rounds of the **Algorithm 2 recovery** engine
    /// through the service. Worker and engine failures are returned as
    /// data (a chaos-planned tenant may abort mid-stream); goodbyes
    /// always go out, so an aborting tenant never wedges its engines —
    /// or anyone else's.
    pub fn run_recovery(self, inputs: Vec<Vec<Tensor>>) -> TenantRun<GroupOutcome<Recovery>> {
        assert_eq!(
            self.engine,
            TenantEngine::Recovery,
            "tenant was admitted with the lossless engine"
        );
        self.run(inputs, |outcome: GroupOutcome<Recovery>| outcome)
    }

    /// Deploys the tenant's workers and per-shard engines over its
    /// virtual lanes and ports (both wrapped in the tenant's chaos plan,
    /// if any) in lockstep with the slot scheduler, winds down, and only
    /// then hands the outcome to `view`.
    fn run<E: Engine, R>(
        mut self,
        inputs: Vec<Vec<Tensor>>,
        view: impl FnOnce(GroupOutcome<E>) -> R,
    ) -> TenantRun<R> {
        let lanes = std::mem::take(&mut self.lanes);
        let ports = std::mem::take(&mut self.ports);
        let (outcome, round_nanos) = match &self.plan {
            Some(plan) => {
                let tl = Some(&self.telemetry);
                let lanes = lanes
                    .into_iter()
                    .map(|ls| ChaosNetwork::wrap(ls, plan, tl))
                    .collect();
                let ports = ChaosNetwork::wrap(ports, plan, tl);
                self.deploy::<E>(lanes, ports, inputs)
            }
            None => self.deploy::<E>(lanes, ports, inputs),
        };
        self.finish();
        TenantRun {
            run: view(outcome),
            round_nanos,
            telemetry: self.telemetry.snapshot(),
            stream: self.stream,
        }
    }

    fn deploy<E: Engine>(
        &self,
        lanes: Vec<Vec<impl Transport>>,
        ports: Vec<impl Transport>,
        inputs: Vec<Vec<Tensor>>,
    ) -> (GroupOutcome<E>, Vec<u64>) {
        let first_agg = self.cfg.aggregator_node(0);
        let nodes = Nodes {
            workers: (lanes.into_iter())
                .map(|ls| Box::new(move || ShardBond::new(ls, first_agg)) as MakeEndpoint<'_, _>)
                .collect(),
            aggregators: ports.into_iter().map(ready).collect(),
            standbys: Vec::new(),
        };
        let mut pace = SchedulerPace {
            scheduler: &self.shared.scheduler,
            stream: self.stream,
            slots: self.slots_per_round,
            round_nanos: Vec::new(),
        };
        let run = group::run::<E>(
            &self.cfg,
            nodes,
            inputs,
            Some(&self.telemetry),
            Some(&mut pace),
        );
        (run, pace.round_nanos)
    }

    /// Common wind-down: tear out this tenant's routes and scheduler
    /// entry, decrement the live count. Only *this* tenant's state is
    /// touched — co-tenant routes, lanes and engines are invisible from
    /// here by construction.
    fn finish(&self) {
        {
            let mut routes = self.shared.routes.lock().expect("route table poisoned");
            for shard_routes in routes.by_stream.iter_mut() {
                shard_routes.remove(&self.stream);
            }
            for w in 0..self.cfg.num_workers {
                routes.by_node.remove(&(self.node_base + w as u16));
            }
        }
        self.shared.scheduler.deregister(self.stream);
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
        self.shared.completed.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -----------------------------------------------------------------
    // Env knob parsing (pure; no process-env mutation)
    // -----------------------------------------------------------------

    #[test]
    fn max_tenants_parses_and_falls_back() {
        assert_eq!(parse_max_tenants(None), DEFAULT_MAX_TENANTS);
        assert_eq!(parse_max_tenants(Some("8")), 8);
        assert_eq!(parse_max_tenants(Some(" 12 ")), 12);
        assert_eq!(parse_max_tenants(Some("0")), DEFAULT_MAX_TENANTS);
        assert_eq!(parse_max_tenants(Some("lots")), DEFAULT_MAX_TENANTS);
    }

    #[test]
    fn tenant_weights_parse_skips_garbage() {
        assert_eq!(parse_tenant_weights(None), Vec::<u64>::new());
        assert_eq!(parse_tenant_weights(Some("4,2,1")), vec![4, 2, 1]);
        assert_eq!(parse_tenant_weights(Some(" 3 , x, 0, 5 ")), vec![3, 5]);
        assert_eq!(parse_tenant_weights(Some("")), Vec::<u64>::new());
    }

    #[test]
    fn registry_cycles_default_weights() {
        let mut reg = JobRegistry::with_limits(4, vec![4, 2]);
        assert_eq!(reg.resolve_weight(7), 7, "pinned weight wins");
        assert_eq!(reg.resolve_weight(0), 4);
        reg.allocate(0, 1).unwrap();
        assert_eq!(reg.resolve_weight(0), 2);
        reg.allocate(1, 1).unwrap();
        assert_eq!(reg.resolve_weight(0), 4, "cycle wraps");
    }

    #[test]
    fn registry_enforces_caps_and_allocates_disjoint_ids() {
        let mut reg = JobRegistry::with_limits(2, vec![]);
        let (s0, n0) = reg.allocate(0, 3).unwrap();
        let (s1, n1) = reg.allocate(1, 2).unwrap();
        assert_eq!(s0, 1, "stream 0 stays reserved for the legacy job");
        assert_eq!(s1, 2);
        assert_eq!(n0, 0);
        assert_eq!(n1, 3, "node ranges must not overlap");
        assert!(matches!(
            reg.allocate(2, 1),
            Err(AdmissionError::TooManyTenants { limit: 2 })
        ));
    }

    // -----------------------------------------------------------------
    // WFQ core
    // -----------------------------------------------------------------

    #[test]
    fn wfq_grants_in_tag_order_with_strict_head_of_line() {
        let mut q = WfqState::new(4);
        q.register(1, 1, None);
        q.register(2, 1, None);
        // Tenant 2 churns unit requests while tenant 1 asks for the
        // whole pool. Small requests with *earlier finish tags* go
        // first (that is WFQ, not starvation) …
        let t2a = q.enqueue(2, 1);
        assert_eq!(q.pump()[0].ticket, t2a);
        let t1 = q.enqueue(1, 4); // tag 4·SCALE
        assert!(q.pump().is_empty(), "4 slots cannot fit in 3 free");
        for _ in 0..2 {
            let t = q.enqueue(2, 1); // tags 2·SCALE, 3·SCALE
            let g = q.pump();
            assert_eq!(g.len(), 1);
            assert_eq!(g[0].ticket, t, "earlier-finish unit requests pass");
        }
        // … but once tenant 2's finish tag catches up to tenant 1's
        // (tie at 4·SCALE, broken by tenant 1's earlier ticket), strict
        // head-of-line kicks in: a free slot exists for the unit
        // request, yet it must NOT bypass the blocked head.
        let t2d = q.enqueue(2, 1);
        assert!(
            q.pump().is_empty(),
            "a fitting late request must not bypass the blocked head"
        );
        assert_eq!(q.pending_len(), 2);
        q.complete(2, 1, 0);
        q.complete(2, 1, 0);
        q.complete(2, 1, 0);
        let g = q.pump();
        assert_eq!(g.len(), 1, "the head takes the whole pool");
        assert_eq!(g[0].ticket, t1);
        q.complete(1, 4, 0);
        let g = q.pump();
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].ticket, t2d, "the queued unit follows the head");
    }

    #[test]
    fn wfq_weighted_shares_on_backlog() {
        // Two backlogged tenants, weights 3:1, unit requests: over many
        // grants tenant 1 receives ~3x tenant 2's slots.
        let mut q = WfqState::new(1);
        q.register(1, 3, None);
        q.register(2, 1, None);
        let mut counts = [0u64; 2];
        let mut outstanding: HashMap<u16, u64> = HashMap::new();
        q.enqueue(1, 1);
        q.enqueue(2, 1);
        for _ in 0..400 {
            let g = q.pump();
            assert_eq!(g.len(), 1, "unit pool grants exactly one");
            let g = g[0];
            counts[(g.stream - 1) as usize] += g.slots;
            *outstanding.entry(g.stream).or_default() += 1;
            q.complete(g.stream, g.slots, 0);
            q.enqueue(g.stream, 1);
        }
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((2.7..=3.3).contains(&ratio), "share ratio {ratio}");
    }

    #[test]
    fn wfq_quota_overuse_becomes_debt_and_delays() {
        let mut q = WfqState::new(2);
        q.register(1, 1, Some(100));
        q.register(2, 1, None);
        q.enqueue(1, 1);
        q.enqueue(2, 1);
        let g = q.pump();
        assert_eq!(g.len(), 2, "both fit the pool");
        // Tenant 1 blows 3x its quota; tenant 2 stays clean.
        assert!(q.complete(1, 1, 300));
        assert!(!q.complete(2, 1, 50));
        assert!(q.debt(1) > 0, "overuse must leave debt");
        assert_eq!(q.throttles(1), 1);
        // Next cycle on a unit pool: tenant 2 now outranks tenant 1.
        let mut q2 = WfqState::new(1);
        q2.register(1, 1, Some(100));
        q2.register(2, 1, None);
        q2.enqueue(1, 1);
        let g = q2.pump();
        q2.complete(1, 1, 300);
        assert_eq!(g[0].stream, 1);
        q2.enqueue(1, 1);
        q2.enqueue(2, 1);
        let g = q2.pump();
        assert_eq!(
            g[0].stream, 2,
            "the indebted tenant must fall behind the clean one"
        );
    }

    // -----------------------------------------------------------------
    // Service smoke tests (heavier batteries live in core/tests/)
    // -----------------------------------------------------------------

    fn tiny_cfg(workers: usize, shards: usize) -> OmniConfig {
        OmniConfig::new(workers, 64)
            .with_block_size(8)
            .with_fusion(2)
            .with_streams(2)
            .with_aggregators(shards)
    }

    #[test]
    fn single_tenant_lossless_round_trip() {
        let mut svc = TenantService::with_registry(2, 64, JobRegistry::with_limits(4, vec![]));
        let handle = svc.admit(TenantSpec::lossless(tiny_cfg(2, 2))).unwrap();
        assert_eq!(handle.stream(), 1);
        let inputs: Vec<Vec<Tensor>> = (0..2)
            .map(|w| vec![Tensor::from_vec(vec![w as f32 + 1.0; 64])])
            .collect();
        let res = handle.run_lossless(inputs);
        for outs in &res.outputs {
            for v in outs[0].as_slice() {
                assert_eq!(*v, 3.0);
            }
        }
        assert_eq!(res.round_nanos.len(), 1);
        assert_eq!(svc.live_tenants(), 0, "handle wind-down must deregister");
        let snap = svc.shutdown();
        assert_eq!(snap.counter("core.tenant.admitted"), 1);
        assert_eq!(snap.counter("core.tenant.completed"), 1);
        assert!(snap.counter("core.tenant.demux.frames") > 0);
        assert_eq!(snap.counter("core.tenant.demux.misrouted"), 0);
    }

    #[test]
    fn admission_rejects_shard_mismatch_and_standby() {
        let mut svc = TenantService::with_registry(2, 64, JobRegistry::with_limits(4, vec![]));
        let err = svc.admit(TenantSpec::lossless(tiny_cfg(1, 1))).unwrap_err();
        assert!(matches!(
            err,
            AdmissionError::ShardMismatch {
                expected: 2,
                got: 1
            }
        ));
        let err = svc
            .admit(TenantSpec::recovery(tiny_cfg(1, 2).with_hot_standby()))
            .unwrap_err();
        assert!(matches!(err, AdmissionError::StandbyUnsupported));
        let snap = svc.shutdown();
        assert_eq!(snap.counter("core.tenant.rejected"), 2);
    }

    #[test]
    fn admission_rejects_oversized_rounds_and_full_house() {
        // Slot pool of 1 cannot host a job whose round needs 4 slots.
        let mut svc = TenantService::with_registry(2, 1, JobRegistry::with_limits(1, vec![]));
        let err = svc.admit(TenantSpec::lossless(tiny_cfg(1, 2))).unwrap_err();
        assert!(matches!(err, AdmissionError::SlotsExceedPool { .. }));
        svc.shutdown();

        let mut svc = TenantService::with_registry(2, 64, JobRegistry::with_limits(1, vec![]));
        let _held = svc.admit(TenantSpec::lossless(tiny_cfg(1, 2))).unwrap();
        let err = svc.admit(TenantSpec::lossless(tiny_cfg(1, 2))).unwrap_err();
        assert!(matches!(err, AdmissionError::TooManyTenants { limit: 1 }));
        // Wind the held tenant down so the service can exit cleanly.
        let inputs = vec![vec![Tensor::from_vec(vec![1.0; 64])]];
        _held.run_lossless(inputs);
        svc.shutdown();
    }
}

//! Deterministic fault injection: crashes, partitions, stragglers and
//! replay-stable loss, composed over any [`Transport`].
//!
//! A [`FaultPlan`] is a seeded schedule of discrete events — crash node 6
//! after its 40th data packet, partition nodes 1↔3 for a window, add
//! 20 ms to everything node 2 sends, drop 1 % of data packets — wrapped
//! around an inner transport (channel or UDP endpoints) by
//! [`ChaosTransport`]. It is the one loss model of the workspace: the
//! Fig. 21 loss sweep, the RTO ablation and every bit-identity suite run
//! over it, and recovery-protocol tests use it to prove the failure
//! semantics the paper never needed (its DPDK testbed assumed live
//! peers): bounded retransmission, peer-death detection, and degraded
//! completion.
//!
//! # Replay-stable ("keyed") loss
//!
//! Multi-threaded protocol engines interleave nondeterministically, so a
//! sequence-counting RNG would assign drops to different packets on
//! different runs. The keyed loss model instead derives each
//! packet's fate from a hash of `(seed, link, flow key, attempt#)`,
//! where the flow key of a block packet is its header's
//! `(kind, ver, slot, wid)` — direction, two-phase slot version, slot,
//! worker — and the attempt number counts the transmissions under that
//! key. The fate of every transmission attempt is therefore a pure
//! function of the plan — identical across replays regardless of thread
//! scheduling — which is what makes `RecoveryStats`-exact determinism
//! tests possible on the executable engines. Burstiness runs a
//! Gilbert–Elliott chain *per flow over its attempts* (initialized from
//! the stationary distribution), so consecutive retransmissions of one
//! packet die together: the scenario that stresses exponential backoff
//! and retry budgets hardest.
//!
//! A flow is wider than one packet: the key holds no block index, and a
//! slot's version alternates between two values phase after phase, so
//! every phase that reuses a slot version continues the same flow — its
//! attempt counter and its Gilbert–Elliott chain carry on from the
//! earlier phase instead of starting fresh. Uniform loss does not notice
//! (each attempt is an independent hash); a bursty run carries a bad
//! state from one phase into a later one. The block stays out because
//! the key is built from the fixed header alone (blocks travel in the
//! entries), and adding it would change every keyed fate, and with them
//! every seeded keyed-loss expectation in the suites and the recorded
//! results.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use omnireduce_telemetry::{Counter, Telemetry};
use parking_lot::Mutex;

use crate::message::{Message, NodeId};
use crate::{Transport, TransportError};

/// Gilbert–Elliott two-state burst-loss channel.
///
/// The channel alternates between a *good* and a *bad* state, with a
/// per-packet transition probability in each direction; each state has
/// its own drop probability. Bursty loss (back-to-back drops) is the
/// failure mode of congested or fading links — and the one that most
/// stresses retransmission backoff, because consecutive retransmissions
/// of the same packet are likely to die together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-packet probability of a good → bad transition.
    pub good_to_bad: f64,
    /// Per-packet probability of a bad → good transition.
    pub bad_to_good: f64,
    /// Drop probability while the channel is good (typically ~0).
    pub good_loss: f64,
    /// Drop probability while the channel is bad.
    pub bad_loss: f64,
}

impl GilbertElliott {
    /// Builds a channel whose *stationary* (long-run average) loss rate
    /// is `avg_loss`, dropping `bad_loss` of packets while bad, with a
    /// mean burst length of `1 / bad_to_good` packets and zero loss
    /// while good.
    ///
    /// # Panics
    /// Panics when the parameters are out of range or unsatisfiable
    /// (`avg_loss` must be `< bad_loss`).
    pub fn from_average(avg_loss: f64, bad_loss: f64, bad_to_good: f64) -> Self {
        assert!((0.0..1.0).contains(&avg_loss));
        assert!((0.0..=1.0).contains(&bad_loss) && bad_loss > 0.0);
        assert!((0.0..=1.0).contains(&bad_to_good) && bad_to_good > 0.0);
        assert!(
            avg_loss < bad_loss,
            "average loss {avg_loss} unreachable with bad-state loss {bad_loss}"
        );
        // avg = pi_bad * bad_loss with pi_bad = g2b / (g2b + b2g).
        let pi_bad = avg_loss / bad_loss;
        let good_to_bad = pi_bad * bad_to_good / (1.0 - pi_bad);
        GilbertElliott {
            good_to_bad,
            bad_to_good,
            good_loss: 0.0,
            bad_loss,
        }
    }

    /// Stationary probability of being in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        self.good_to_bad / (self.good_to_bad + self.bad_to_good)
    }

    /// Long-run average drop probability.
    pub fn stationary_loss(&self) -> f64 {
        let pi_bad = self.stationary_bad();
        (1.0 - pi_bad) * self.good_loss + pi_bad * self.bad_loss
    }

    /// Validates the probabilities.
    pub fn validate(&self) {
        for p in [
            self.good_to_bad,
            self.bad_to_good,
            self.good_loss,
            self.bad_loss,
        ] {
            assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        }
    }
}

/// Replay-stable loss parameters (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct KeyedLoss {
    /// Per-attempt drop probability (ignored when `burst` is set).
    pub drop_prob: f64,
    /// Per-attempt duplication probability.
    pub dup_prob: f64,
    /// Optional per-flow Gilbert–Elliott chain over retransmission
    /// attempts.
    pub burst: Option<GilbertElliott>,
}

impl KeyedLoss {
    /// Uniform keyed loss.
    pub fn uniform(drop_prob: f64, dup_prob: f64) -> Self {
        KeyedLoss {
            drop_prob,
            dup_prob,
            burst: None,
        }
    }

    /// Adds a burst model.
    pub fn with_burst(mut self, burst: GilbertElliott) -> Self {
        burst.validate();
        self.burst = Some(burst);
        self
    }
}

/// One scheduled node crash.
#[derive(Debug, Clone, Copy)]
struct Crash {
    node: u16,
    /// The node dies when it attempts its `(after + 1)`-th data-plane
    /// send: exactly `after` data packets leave it.
    after_data_sends: u64,
}

/// One scheduled link partition (undirected pair, per-direction window).
#[derive(Debug, Clone, Copy)]
struct Partition {
    a: u16,
    b: u16,
    /// Window on the directed per-link data-packet counter: packets with
    /// index in `[from, to)` (0-based, counted independently per
    /// direction) are dropped.
    from: u64,
    to: u64,
}

/// One straggler injection: added delay on matching sends.
#[derive(Debug, Clone, Copy)]
struct Straggler {
    src: u16,
    /// `None` delays every link leaving `src`.
    dst: Option<u16>,
    delay: Duration,
}

/// A seeded, deterministic schedule of faults for one mesh.
///
/// Build with the fluent API, then wrap a mesh's endpoints with
/// [`ChaosNetwork::wrap`]:
///
/// ```
/// use omnireduce_transport::fault::{FaultPlan, KeyedLoss};
/// let plan = FaultPlan::new(42)
///     .crash_after(2, 40)                 // node 2 dies at data packet 41
///     .partition(0, 1, 10, 20)            // 0↔1 black-holed for a window
///     .straggle(3, std::time::Duration::from_millis(5))
///     .loss(KeyedLoss::uniform(0.01, 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<Crash>,
    partitions: Vec<Partition>,
    stragglers: Vec<Straggler>,
    loss: Option<KeyedLoss>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed for the keyed
    /// loss model.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            crashes: Vec::new(),
            partitions: Vec::new(),
            stragglers: Vec::new(),
            loss: None,
        }
    }

    /// Crashes `node` after it has sent `after` data-plane packets: send
    /// number `after + 1` and everything later (including control
    /// traffic) is black-holed, and the node's own receives fail with
    /// [`TransportError::Disconnected`] — the in-process equivalent of
    /// `kill -9`.
    pub fn crash_after(mut self, node: u16, after: u64) -> Self {
        self.crashes.push(Crash {
            node,
            after_data_sends: after,
        });
        self
    }

    /// Partitions the pair `a ↔ b` while each direction's data-packet
    /// counter is in `[from, to)`. Control messages keep flowing (the
    /// paper's control plane is a separate TCP mesh).
    pub fn partition(mut self, a: u16, b: u16, from: u64, to: u64) -> Self {
        assert!(from <= to, "partition window inverted");
        self.partitions.push(Partition { a, b, from, to });
        self
    }

    /// Adds `delay` to every data-plane send leaving `src` (a slow NIC /
    /// overloaded host: the straggler blocks in its own send path).
    pub fn straggle(mut self, src: u16, delay: Duration) -> Self {
        self.stragglers.push(Straggler {
            src,
            dst: None,
            delay,
        });
        self
    }

    /// Adds `delay` only on the `src → dst` link.
    pub fn straggle_link(mut self, src: u16, dst: u16, delay: Duration) -> Self {
        self.stragglers.push(Straggler {
            src,
            dst: Some(dst),
            delay,
        });
        self
    }

    /// Applies keyed (replay-stable) loss to every data-plane send.
    pub fn loss(mut self, loss: KeyedLoss) -> Self {
        assert!((0.0..=1.0).contains(&loss.drop_prob));
        assert!((0.0..=1.0).contains(&loss.dup_prob));
        self.loss = Some(loss);
        self
    }
}

/// Shared `transport.fault.*` counters (detached unless built with
/// telemetry).
#[derive(Clone)]
struct FaultCounters {
    crashed_sends: Counter,
    partition_drops: Counter,
    keyed_drops: Counter,
    keyed_dups: Counter,
    straggle_delays: Counter,
}

impl FaultCounters {
    fn new(telemetry: Option<&Telemetry>) -> Self {
        let counter = |name: &str| match telemetry {
            Some(t) => t.counter(name),
            None => Counter::detached(),
        };
        FaultCounters {
            crashed_sends: counter("transport.fault.crashed_sends"),
            partition_drops: counter("transport.fault.partition_drops"),
            keyed_drops: counter("transport.fault.keyed_drops"),
            keyed_dups: counter("transport.fault.keyed_dups"),
            straggle_delays: counter("transport.fault.straggle_delays"),
        }
    }
}

/// Builder for a mesh of [`ChaosTransport`]s.
pub struct ChaosNetwork;

impl ChaosNetwork {
    /// Wraps a mesh's endpoints (indexed by node id) in the fault plan,
    /// mirroring injection events into `telemetry`'s `transport.fault.*`
    /// counters when one is given.
    pub fn wrap<T: Transport>(
        endpoints: Vec<T>,
        plan: &FaultPlan,
        telemetry: Option<&Telemetry>,
    ) -> Vec<ChaosTransport<T>> {
        let counters = FaultCounters::new(telemetry);
        let plan = Arc::new(plan.clone());
        endpoints
            .into_iter()
            .map(|inner| ChaosTransport::new(inner, plan.clone(), counters.clone()))
            .collect()
    }
}

/// Per-endpoint mutable chaos state.
#[derive(Default)]
struct ChaosState {
    /// Data-plane packets this node has attempted to send (crash clock).
    data_sends: u64,
    /// Per-destination data-packet counters (partition windows).
    link_seq: HashMap<u16, u64>,
    /// Per-(destination, flow-key) attempt counters and burst chains.
    flows: HashMap<(u16, u64), FlowState>,
}

struct FlowState {
    attempts: u64,
    /// Gilbert–Elliott state at the *last evaluated* attempt.
    bad: bool,
}

/// One endpoint wrapped in a [`FaultPlan`].
pub struct ChaosTransport<T: Transport> {
    inner: T,
    plan: Arc<FaultPlan>,
    crashed: AtomicBool,
    state: Mutex<ChaosState>,
    counters: FaultCounters,
}

/// splitmix64 — the hash behind every keyed decision.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn mix_all(parts: &[u64]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64; // pi, for flavour
    for p in parts {
        h = mix(h ^ *p);
    }
    h
}

/// Uniform f64 in `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_DROP: u64 = 0xD0;
const SALT_DUP: u64 = 0xD1;
const SALT_INIT: u64 = 0xB0;
const SALT_TRANS: u64 = 0xB1;

/// Structural flow key of a data-plane message, so all retransmissions
/// of a packet share one attempt counter. For a block packet it is
/// `(kind, ver, slot, wid)` with no block index, so later phases that
/// reuse a slot version continue the flow (see the module docs).
/// Control messages have no flow key.
fn flow_key(msg: &Message) -> Option<u64> {
    match msg {
        // Tenant-local coordinates only (slot, not the tenant stream
        // id): a tenant's chaos fates must not depend on which stream
        // id admission handed it, so a solo replay with the same seed
        // sees identical drops/dups (the §15 isolation invariant).
        Message::Block(p) => Some(mix_all(&[
            1,
            p.kind as u64,
            p.ver as u64,
            p.slot as u64,
            p.wid as u64,
        ])),
        Message::Kv(p) => Some(mix_all(&[
            2,
            p.kind as u64,
            p.wid as u64,
            p.nextkey,
            p.keys.first().copied().unwrap_or(u32::MAX) as u64,
            p.keys.len() as u64,
        ])),
        Message::Start { .. }
        | Message::Shutdown
        | Message::Join { .. }
        | Message::Welcome { .. }
        | Message::Checkpoint(_) => None,
    }
}

impl<T: Transport> ChaosTransport<T> {
    fn new(inner: T, plan: Arc<FaultPlan>, counters: FaultCounters) -> Self {
        ChaosTransport {
            inner,
            plan,
            crashed: AtomicBool::new(false),
            state: Mutex::new(ChaosState::default()),
            counters,
        }
    }

    /// True once this node's scheduled crash has triggered.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Keyed drop/duplicate fate of one transmission attempt.
    fn keyed_fate(&self, peer: NodeId, key: u64, state: &mut ChaosState) -> (bool, bool) {
        let Some(loss) = self.plan.loss else {
            return (false, false);
        };
        let me = self.inner.local_id().0 as u64;
        let link = mix_all(&[me, peer.0 as u64]);
        let flow = state.flows.entry((peer.0, key)).or_insert(FlowState {
            attempts: 0,
            bad: false,
        });
        let attempt = flow.attempts;
        flow.attempts += 1;
        let drop = match loss.burst {
            None => {
                unit(mix_all(&[self.plan.seed, link, key, attempt, SALT_DROP])) < loss.drop_prob
            }
            Some(ge) => {
                if attempt == 0 {
                    // Initial state from the stationary distribution, so
                    // first attempts see the configured average loss.
                    flow.bad = unit(mix_all(&[self.plan.seed, link, key, SALT_INIT]))
                        < ge.stationary_bad();
                } else {
                    let p = if flow.bad {
                        ge.bad_to_good
                    } else {
                        ge.good_to_bad
                    };
                    if unit(mix_all(&[self.plan.seed, link, key, attempt, SALT_TRANS])) < p {
                        flow.bad = !flow.bad;
                    }
                }
                let p_loss = if flow.bad { ge.bad_loss } else { ge.good_loss };
                unit(mix_all(&[self.plan.seed, link, key, attempt, SALT_DROP])) < p_loss
            }
        };
        let dup = unit(mix_all(&[self.plan.seed, link, key, attempt, SALT_DUP])) < loss.dup_prob;
        (drop, dup)
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn local_id(&self) -> NodeId {
        self.inner.local_id()
    }

    fn send(&self, peer: NodeId, msg: &Message) -> Result<(), TransportError> {
        if self.is_crashed() {
            // Dead nodes transmit nothing, control plane included.
            self.counters.crashed_sends.inc();
            return Ok(());
        }
        let me = self.inner.local_id().0;
        let data_plane = matches!(msg, Message::Block(_) | Message::Kv(_));
        // Checkpoint deltas ride a dedicated reliable replication lane
        // (no loss, partitions or stragglers), but they *do* advance the
        // crash clock: a primary can die between checkpointing a phase
        // and multicasting its result, the failover window the standby
        // protocol must survive.
        let replication = matches!(msg, Message::Checkpoint(_));
        if !data_plane && !replication {
            // Control plane rides a separate reliable fabric (the
            // paper's TCP control mesh): unaffected by partitions, loss
            // and stragglers — only by the node itself dying.
            return self.inner.send(peer, msg);
        }

        // Crash clock + per-link sequencing + keyed fates, one lock.
        let (drop, dup, link_n) = {
            let mut st = self.state.lock();
            st.data_sends += 1;
            for c in &self.plan.crashes {
                if c.node == me && st.data_sends > c.after_data_sends {
                    self.crashed.store(true, Ordering::Relaxed);
                    self.counters.crashed_sends.inc();
                    return Ok(()); // the crashing send is lost with the node
                }
            }
            if replication {
                std::mem::drop(st);
                return self.inner.send(peer, msg);
            }
            let link_n = {
                let n = st.link_seq.entry(peer.0).or_insert(0);
                let cur = *n;
                *n += 1;
                cur
            };
            let (drop, dup) = match flow_key(msg) {
                Some(key) => self.keyed_fate(peer, key, &mut st),
                None => (false, false),
            };
            (drop, dup, link_n)
        };

        for p in &self.plan.partitions {
            let on_pair = (p.a == me && p.b == peer.0) || (p.b == me && p.a == peer.0);
            if on_pair && link_n >= p.from && link_n < p.to {
                self.counters.partition_drops.inc();
                return Ok(());
            }
        }

        for s in &self.plan.stragglers {
            if s.src == me && s.dst.is_none_or(|d| d == peer.0) {
                self.counters.straggle_delays.inc();
                std::thread::sleep(s.delay);
            }
        }

        if drop {
            self.counters.keyed_drops.inc();
            return Ok(());
        }
        self.inner.send(peer, msg)?;
        if dup {
            self.counters.keyed_dups.inc();
            self.inner.send(peer, msg)?;
        }
        Ok(())
    }

    fn recv(&self) -> Result<(NodeId, Message), TransportError> {
        if self.is_crashed() {
            return Err(TransportError::Disconnected);
        }
        self.inner.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
        if self.is_crashed() {
            return Err(TransportError::Disconnected);
        }
        self.inner.recv_timeout(timeout)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::channel::ChannelNetwork;
    use crate::message::{Packet, PacketKind};

    pub(crate) fn data(slot: u16, ver: u8, wid: u16) -> Message {
        Message::Block(Packet {
            kind: PacketKind::Data,
            ver,
            epoch: 0,
            slot,
            stream: 0,
            wid,
            entries: vec![],
        })
    }

    fn checkpoint() -> Message {
        Message::Checkpoint(crate::message::CheckpointDelta {
            epoch: 0,
            slot: 0,
            ver: 0,
            members: vec![0],
            evicted: vec![],
            entries: vec![],
        })
    }

    fn mesh(n: usize, plan: &FaultPlan) -> Vec<ChaosTransport<crate::channel::ChannelTransport>> {
        ChaosNetwork::wrap(ChannelNetwork::new(n).endpoints(), plan, None)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let eps = mesh(2, &FaultPlan::new(1));
        for i in 0..10 {
            eps[0].send(NodeId(1), &data(i, 0, 0)).unwrap();
        }
        eps[0].send(NodeId(1), &Message::Shutdown).unwrap();
        for _ in 0..11 {
            assert!(eps[1]
                .recv_timeout(Duration::from_millis(20))
                .unwrap()
                .is_some());
        }
    }

    #[test]
    fn crash_blackholes_after_n_data_sends() {
        let eps = mesh(2, &FaultPlan::new(1).crash_after(0, 3));
        for i in 0..10 {
            eps[0].send(NodeId(1), &data(i, 0, 0)).unwrap();
        }
        // Exactly 3 packets made it out.
        for _ in 0..3 {
            assert!(eps[1]
                .recv_timeout(Duration::from_millis(20))
                .unwrap()
                .is_some());
        }
        assert!(eps[1]
            .recv_timeout(Duration::from_millis(10))
            .unwrap()
            .is_none());
        assert!(eps[0].is_crashed());
        // The dead node's own receives fail like a killed process.
        assert!(matches!(eps[0].recv(), Err(TransportError::Disconnected)));
        // Control traffic from a dead node vanishes too.
        eps[0].send(NodeId(1), &Message::Shutdown).unwrap();
        assert!(eps[1]
            .recv_timeout(Duration::from_millis(10))
            .unwrap()
            .is_none());
    }

    #[test]
    fn control_plane_does_not_advance_crash_clock() {
        let eps = mesh(2, &FaultPlan::new(1).crash_after(0, 2));
        for _ in 0..5 {
            eps[0].send(NodeId(1), &Message::Start { seq: 1 }).unwrap();
        }
        assert!(!eps[0].is_crashed());
        eps[0].send(NodeId(1), &data(0, 0, 0)).unwrap();
        eps[0].send(NodeId(1), &data(1, 0, 0)).unwrap();
        assert!(!eps[0].is_crashed());
        eps[0].send(NodeId(1), &data(2, 0, 0)).unwrap();
        assert!(eps[0].is_crashed());
    }

    #[test]
    fn checkpoint_advances_crash_clock_but_is_never_lost() {
        // Replication-lane sends are exempt from loss and partitions...
        let eps = mesh(
            2,
            &FaultPlan::new(9)
                .partition(0, 1, 0, 100)
                .loss(KeyedLoss::uniform(1.0, 0.0)),
        );
        for _ in 0..8 {
            eps[0].send(NodeId(1), &checkpoint()).unwrap();
            assert!(eps[1]
                .recv_timeout(Duration::from_millis(15))
                .unwrap()
                .is_some());
        }
        // ...but they do count toward the sender's crash schedule.
        let eps = mesh(2, &FaultPlan::new(9).crash_after(0, 2));
        eps[0].send(NodeId(1), &checkpoint()).unwrap();
        eps[0].send(NodeId(1), &checkpoint()).unwrap();
        assert!(!eps[0].is_crashed());
        eps[0].send(NodeId(1), &checkpoint()).unwrap();
        assert!(eps[0].is_crashed());
        assert!(eps[1]
            .recv_timeout(Duration::from_millis(10))
            .unwrap()
            .is_some());
        assert!(eps[1]
            .recv_timeout(Duration::from_millis(10))
            .unwrap()
            .is_some());
        assert!(eps[1]
            .recv_timeout(Duration::from_millis(10))
            .unwrap()
            .is_none());
    }

    #[test]
    fn partition_window_drops_then_heals() {
        let eps = mesh(3, &FaultPlan::new(1).partition(0, 1, 2, 4));
        let mut delivered = Vec::new();
        for i in 0..6u16 {
            eps[0].send(NodeId(1), &data(i, 0, 0)).unwrap();
            let got = eps[1].recv_timeout(Duration::from_millis(15)).unwrap();
            delivered.push(got.is_some());
        }
        assert_eq!(delivered, [true, true, false, false, true, true]);
        // Uninvolved links unaffected.
        eps[0].send(NodeId(2), &data(0, 0, 0)).unwrap();
        assert!(eps[2]
            .recv_timeout(Duration::from_millis(15))
            .unwrap()
            .is_some());
    }

    #[test]
    fn straggler_delays_sends() {
        let eps = mesh(2, &FaultPlan::new(1).straggle(0, Duration::from_millis(20)));
        let t0 = std::time::Instant::now();
        eps[0].send(NodeId(1), &data(0, 0, 0)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        // Other direction unaffected.
        let t1 = std::time::Instant::now();
        eps[1].send(NodeId(0), &data(0, 0, 1)).unwrap();
        assert!(t1.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn keyed_loss_is_order_independent() {
        // Two interleavings of the same multiset of packets must produce
        // identical per-packet fates (drop counts per stream).
        let run = |order: &[u16]| {
            let eps = mesh(2, &FaultPlan::new(77).loss(KeyedLoss::uniform(0.5, 0.0)));
            for s in order {
                eps[0].send(NodeId(1), &data(*s, 0, 0)).unwrap();
            }
            let mut got = Vec::new();
            while let Some((_, m)) = eps[1].recv_timeout(Duration::from_millis(5)).unwrap() {
                if let Message::Block(p) = m {
                    got.push(p.slot);
                }
            }
            got.sort_unstable();
            got
        };
        let fwd: Vec<u16> = (0..64).collect();
        let rev: Vec<u16> = (0..64).rev().collect();
        assert_eq!(run(&fwd), run(&rev));
    }

    #[test]
    fn keyed_loss_attempts_get_independent_fates() {
        // A packet dropped on attempt k must not be dropped forever:
        // with p = 0.5, some retransmission of each flow gets through.
        let eps = mesh(2, &FaultPlan::new(3).loss(KeyedLoss::uniform(0.5, 0.0)));
        let mut delivered = 0;
        for attempt in 0..64 {
            eps[0].send(NodeId(1), &data(9, 1, 0)).unwrap(); // same flow
            if eps[1]
                .recv_timeout(Duration::from_millis(5))
                .unwrap()
                .is_some()
            {
                delivered += 1;
            }
            let _ = attempt;
        }
        assert!(delivered > 10 && delivered < 54, "delivered {delivered}/64");
    }

    #[test]
    fn keyed_burst_first_attempts_match_average() {
        // First attempts across many distinct flows see the stationary
        // average loss rate.
        let ge = GilbertElliott::from_average(0.10, 0.8, 0.2);
        let eps = mesh(
            2,
            &FaultPlan::new(5).loss(KeyedLoss::uniform(0.0, 0.0).with_burst(ge)),
        );
        let n = 4000u16;
        let mut dropped = 0;
        for s in 0..n {
            eps[0].send(NodeId(1), &data(s, 0, s % 7)).unwrap();
            if eps[1]
                .recv_timeout(Duration::from_millis(5))
                .unwrap()
                .is_none()
            {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.03, "first-attempt loss {rate}");
    }

    #[test]
    fn keyed_dup_duplicates() {
        let eps = mesh(2, &FaultPlan::new(1).loss(KeyedLoss::uniform(0.0, 1.0)));
        eps[0].send(NodeId(1), &data(0, 0, 0)).unwrap();
        assert!(eps[1]
            .recv_timeout(Duration::from_millis(5))
            .unwrap()
            .is_some());
        assert!(eps[1]
            .recv_timeout(Duration::from_millis(5))
            .unwrap()
            .is_some());
    }

    #[test]
    fn telemetry_counts_injections() {
        let telemetry = Telemetry::new();
        let plan = FaultPlan::new(1)
            .crash_after(0, 1)
            .loss(KeyedLoss::uniform(1.0, 0.0));
        let eps = ChaosNetwork::wrap(ChannelNetwork::new(2).endpoints(), &plan, Some(&telemetry));
        eps[0].send(NodeId(1), &data(0, 0, 0)).unwrap(); // keyed drop
        eps[0].send(NodeId(1), &data(1, 0, 0)).unwrap(); // crash trigger
        eps[0].send(NodeId(1), &data(2, 0, 0)).unwrap(); // crashed send
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("transport.fault.keyed_drops"), 1);
        assert_eq!(snap.counter("transport.fault.crashed_sends"), 2);
    }

    #[test]
    fn gilbert_elliott_from_average_solves_stationary_rate() {
        let ge = GilbertElliott::from_average(0.01, 0.5, 0.25);
        assert!((ge.stationary_loss() - 0.01).abs() < 1e-12);
        assert!((ge.stationary_bad() - 0.02).abs() < 1e-12);
        assert!(ge.good_to_bad > 0.0 && ge.good_to_bad < 0.25);
    }
}

//! In-situ spans recorded from outside the program under test.
//!
//! Every endpoint handed to an engine in a traced repetition is wrapped
//! in a [`TracedTransport`], which times each call the engine makes into
//! its transport and records it as a span whose parent is the span the
//! harness holds open on that thread: the round around `allreduce` on a
//! worker, the whole `run` on an aggregator. All nodes stamp their spans
//! with the round id the harness publishes in the [`TraceHub`], so the
//! spans of one round share an identifier across threads.
//!
//! Spans stay in memory, in one buffer per node, and are read once the
//! repetition's threads have been joined. A layer's self time is its
//! span's duration minus the part of that interval its children cover.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use omnireduce_telemetry::{Clock, WallClock};
use omnireduce_transport::{Message, NodeId, Transport, TransportError};

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans reserved per node when a lane is created; a traced repetition
/// of a few seconds stays below it, so recording does not reallocate.
const LANE_CAPACITY: usize = 1 << 20;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One `allreduce` call on a worker thread.
    Round,
    /// The aggregator's `run` call, first packet to last goodbye.
    Run,
    /// `Transport::send`.
    Send,
    /// `Transport::multicast`.
    Multicast,
    /// `Transport::recv`.
    Recv,
    /// `Transport::recv_timeout`.
    RecvTimeout,
}

impl SpanKind {
    /// Name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Round => "core.worker.round",
            SpanKind::Run => "core.aggregator.run",
            SpanKind::Send => "transport.send",
            SpanKind::Multicast => "transport.multicast",
            SpanKind::Recv => "transport.recv",
            SpanKind::RecvTimeout => "transport.recv_timeout",
        }
    }

    fn is_send(self) -> bool {
        matches!(self, SpanKind::Send | SpanKind::Multicast)
    }

    fn is_recv(self) -> bool {
        matches!(self, SpanKind::Recv | SpanKind::RecvTimeout)
    }
}

/// One timed interval on one node's thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    /// Nanoseconds on the hub's clock.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index, in the same lane, of the span that was open when this one
    /// started; [`NO_PARENT`] for a top-level span.
    pub parent: u32,
    /// Round id shared by every node's spans of the same round.
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Which engine a lane belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Worker,
    Aggregator,
}

#[derive(Debug)]
struct LaneBuf {
    spans: Vec<Span>,
    /// The innermost span still open on this thread.
    open: u32,
}

/// One node's span buffer. Clones share the buffer: the harness holds
/// one to open round spans, the node's [`TracedTransport`] another.
#[derive(Debug, Clone)]
pub struct Lane {
    role: Role,
    node: u16,
    hub: Arc<HubShared>,
    // Uncontended: both holders run on the node's own thread. The mutex
    // is only what makes the wrapper `Send`, as `Transport` requires.
    buf: Arc<Mutex<LaneBuf>>,
}

#[derive(Debug)]
struct HubShared {
    // The telemetry crate's TSC-backed clock: a read costs about a third
    // of an `Instant`, and every span takes two.
    clock: WallClock,
    round: AtomicU32,
}

/// The spans of one traced repetition: a common clock, the current round
/// id, and every lane created from it.
#[derive(Debug)]
pub struct TraceHub {
    shared: Arc<HubShared>,
    lanes: Mutex<Vec<Lane>>,
}

impl Default for TraceHub {
    fn default() -> Self {
        TraceHub {
            shared: Arc::new(HubShared {
                clock: WallClock::new().calibrated(),
                round: AtomicU32::new(0),
            }),
            lanes: Mutex::new(Vec::new()),
        }
    }
}

impl TraceHub {
    /// Creates the lane of node `node`.
    pub fn lane(&self, role: Role, node: u16) -> Lane {
        let lane = Lane {
            role,
            node,
            hub: self.shared.clone(),
            buf: Arc::new(Mutex::new(LaneBuf {
                spans: Vec::with_capacity(LANE_CAPACITY),
                open: NO_PARENT,
            })),
        };
        self.lanes
            .lock()
            .expect("trace hub poisoned")
            .push(lane.clone());
        lane
    }

    /// Publishes the id of the round about to start. Relaxed: the id is
    /// a label on spans, it orders nothing.
    pub fn set_round(&self, round: u32) {
        self.shared.round.store(round, Ordering::Relaxed);
    }

    /// Takes every lane's spans. Call after the nodes' threads have been
    /// joined.
    pub fn collect(&self) -> Vec<LaneTrace> {
        self.lanes
            .lock()
            .expect("trace hub poisoned")
            .iter()
            .map(|l| LaneTrace {
                role: l.role,
                node: l.node,
                spans: std::mem::take(&mut l.buf.lock().expect("lane poisoned").spans),
            })
            .collect()
    }
}

impl Lane {
    fn now_ns(&self) -> u64 {
        self.hub.clock.now_ns()
    }

    /// Opens a span that later calls on this thread become children of.
    /// Returns its index for [`Lane::close`].
    pub fn open(&self, kind: SpanKind) -> u32 {
        let now = self.now_ns();
        let round = self.hub.round.load(Ordering::Relaxed);
        let mut buf = self.buf.lock().expect("lane poisoned");
        let idx = buf.spans.len() as u32;
        let parent = buf.open;
        buf.spans.push(Span {
            kind,
            start_ns: now,
            end_ns: now,
            parent,
            round,
        });
        buf.open = idx;
        idx
    }

    /// Closes the span [`Lane::open`] returned.
    pub fn close(&self, idx: u32) {
        let now = self.now_ns();
        let mut buf = self.buf.lock().expect("lane poisoned");
        let span = &mut buf.spans[idx as usize];
        span.end_ns = now;
        let parent = span.parent;
        buf.open = parent;
    }

    /// Records a finished leaf span under whatever span is open.
    fn leaf(&self, kind: SpanKind, start_ns: u64) {
        let end_ns = self.now_ns();
        let round = self.hub.round.load(Ordering::Relaxed);
        let mut buf = self.buf.lock().expect("lane poisoned");
        let parent = buf.open;
        buf.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            parent,
            round,
        });
    }
}

/// A [`Transport`] that forwards every call unchanged to `inner` and
/// records how long each took.
pub struct TracedTransport<T: Transport> {
    inner: T,
    lane: Lane,
}

impl<T: Transport> TracedTransport<T> {
    pub fn new(inner: T, lane: Lane) -> Self {
        TracedTransport { inner, lane }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn local_id(&self) -> NodeId {
        self.inner.local_id()
    }

    fn send(&self, peer: NodeId, msg: &Message) -> Result<(), TransportError> {
        let t0 = self.lane.now_ns();
        let r = self.inner.send(peer, msg);
        self.lane.leaf(SpanKind::Send, t0);
        r
    }

    fn recv(&self) -> Result<(NodeId, Message), TransportError> {
        let t0 = self.lane.now_ns();
        let r = self.inner.recv();
        self.lane.leaf(SpanKind::Recv, t0);
        r
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
        let t0 = self.lane.now_ns();
        let r = self.inner.recv_timeout(timeout);
        self.lane.leaf(SpanKind::RecvTimeout, t0);
        r
    }

    // Forwarded rather than inherited, so an inner transport with a real
    // multicast keeps using it.
    fn multicast(&self, peers: &[NodeId], msg: &Message) -> Result<(), TransportError> {
        let t0 = self.lane.now_ns();
        let r = self.inner.multicast(peers, msg);
        self.lane.leaf(SpanKind::Multicast, t0);
        r
    }
}

/// The spans one node recorded.
#[derive(Debug, Clone)]
pub struct LaneTrace {
    pub role: Role,
    pub node: u16,
    pub spans: Vec<Span>,
}

/// Self time of every span of one lane: its duration minus the union of
/// its children's intervals, each clipped to the parent. Children may
/// nest further or overlap one another; an overlapped stretch is
/// subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            if end > start {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Totals over the lanes of one role.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoleSummary {
    /// Lanes (threads) of this role.
    pub lanes: u64,
    /// Top-level spans: rounds on workers, runs on aggregators.
    pub top_spans: u64,
    /// Σ duration of the top-level spans.
    pub top_ns: u64,
    /// Σ self time of the top-level spans: engine work outside its
    /// transport.
    pub self_ns: u64,
    pub sends: u64,
    pub send_ns: u64,
    pub recvs: u64,
    /// Time inside `recv`/`recv_timeout`: mostly waiting for a peer.
    pub recv_ns: u64,
}

impl RoleSummary {
    fn ratio(num: u64, den: u64) -> f64 {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    }

    pub fn send_share(&self) -> f64 {
        Self::ratio(self.send_ns, self.top_ns)
    }

    pub fn recv_wait_share(&self) -> f64 {
        Self::ratio(self.recv_ns, self.top_ns)
    }

    pub fn send_ns_per_msg(&self) -> f64 {
        Self::ratio(self.send_ns, self.sends)
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"lanes\": {}, \"top_spans\": {}, \"top_ns\": {}, \"self_ns\": {}, \
             \"sends\": {}, \"send_ns\": {}, \"recvs\": {}, \"recv_ns\": {}}}",
            self.lanes,
            self.top_spans,
            self.top_ns,
            self.self_ns,
            self.sends,
            self.send_ns,
            self.recvs,
            self.recv_ns
        )
    }
}

/// Sums the spans of every lane with role `role`. Transport spans count
/// only when they have a parent: calls outside a round (the goodbye a
/// worker sends at shutdown) belong to no round.
pub fn summarize<'a>(lanes: impl IntoIterator<Item = &'a LaneTrace>, role: Role) -> RoleSummary {
    let mut sum = RoleSummary::default();
    for lane in lanes.into_iter().filter(|l| l.role == role) {
        sum.lanes += 1;
        let selfs = self_times(&lane.spans);
        for (span, self_ns) in lane.spans.iter().zip(selfs) {
            match span.kind {
                SpanKind::Round | SpanKind::Run => {
                    sum.top_spans += 1;
                    sum.top_ns += span.duration_ns();
                    sum.self_ns += self_ns;
                }
                k if span.parent != NO_PARENT && k.is_send() => {
                    sum.sends += 1;
                    sum.send_ns += span.duration_ns();
                }
                k if span.parent != NO_PARENT && k.is_recv() => {
                    sum.recvs += 1;
                    sum.recv_ns += span.duration_ns();
                }
                _ => {}
            }
        }
    }
    sum
}

/// Renders the spans of rounds `< max_rounds` as a JSON array (one
/// object per lane). The full trace of a multi-second repetition runs to
/// millions of spans; the file keeps the first rounds whole and the
/// summaries cover the rest.
pub fn lanes_json(lanes: &[LaneTrace], max_rounds: u32) -> String {
    let mut out = String::from("[");
    for (i, lane) in lanes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let role = match lane.role {
            Role::Worker => "worker",
            Role::Aggregator => "aggregator",
        };
        out.push_str(&format!(
            "\n    {{\"role\": \"{role}\", \"node\": {}, \"spans_recorded\": {}, \"spans\": [",
            lane.node,
            lane.spans.len()
        ));
        let mut first = true;
        for (idx, s) in lane.spans.iter().enumerate() {
            if s.round >= max_rounds {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "\n      {{\"id\": {idx}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"round\": {}}}",
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                s.round
            ));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnireduce_transport::{ChannelNetwork, Entry, Packet, PacketKind};

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // round [0,100) > send [10,30) > (a grandchild) recv [15,20)
        let spans = [
            span(SpanKind::Round, 0, 100, NO_PARENT),
            span(SpanKind::Send, 10, 30, 0),
            span(SpanKind::Recv, 15, 20, 1),
            span(SpanKind::Recv, 50, 90, 0),
        ];
        // The grandchild comes off its own parent only.
        assert_eq!(self_times(&spans), vec![100 - 20 - 40, 20 - 5, 5, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(SpanKind::Round, 0, 100, NO_PARENT),
            span(SpanKind::Send, 10, 40, 0),
            span(SpanKind::Recv, 30, 60, 0), // overlaps the send by 10
            span(SpanKind::Recv, 35, 38, 0), // wholly inside both
            span(SpanKind::Recv, 90, 120, 0), // runs past the parent's end
        ];
        // Covered: [10,60) = 50 and [90,100) = 10.
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn summary_keeps_roles_apart_and_skips_orphan_transport_spans() {
        let lanes = [
            LaneTrace {
                role: Role::Worker,
                node: 0,
                spans: vec![
                    span(SpanKind::Round, 0, 100, NO_PARENT),
                    span(SpanKind::Send, 0, 10, 0),
                    span(SpanKind::Recv, 10, 70, 0),
                    // The goodbye after the last round has no parent.
                    span(SpanKind::Send, 200, 900, NO_PARENT),
                ],
            },
            LaneTrace {
                role: Role::Aggregator,
                node: 4,
                spans: vec![
                    span(SpanKind::Run, 0, 1000, NO_PARENT),
                    span(SpanKind::RecvTimeout, 0, 400, 0),
                    span(SpanKind::Multicast, 400, 500, 0),
                ],
            },
        ];
        let w = summarize(&lanes, Role::Worker);
        assert_eq!(
            w,
            RoleSummary {
                lanes: 1,
                top_spans: 1,
                top_ns: 100,
                self_ns: 30,
                sends: 1,
                send_ns: 10,
                recvs: 1,
                recv_ns: 60,
            }
        );
        assert_eq!(w.send_share(), 0.1);
        assert_eq!(w.recv_wait_share(), 0.6);
        let a = summarize(&lanes, Role::Aggregator);
        assert_eq!((a.self_ns, a.send_ns, a.recv_ns), (500, 100, 400));
    }

    fn block_message(tag: u32) -> Message {
        Message::Block(Packet {
            kind: PacketKind::Data,
            ver: 1,
            slot: 3,
            stream: 7,
            wid: 0,
            epoch: 2,
            entries: vec![Entry::data(tag, tag + 4, vec![0.25, -1.5, tag as f32])],
        })
    }

    #[test]
    fn traced_transport_forwards_every_method_unchanged() {
        let hub = TraceHub::default();
        let mut net = ChannelNetwork::new(3);
        let mut ends = net.endpoints().into_iter();
        let a = TracedTransport::new(ends.next().unwrap(), hub.lane(Role::Worker, 0));
        let b = ends.next().unwrap();
        let c = ends.next().unwrap();
        assert_eq!(a.local_id(), NodeId(0));

        // send: the peer sees the same message from the same sender.
        hub.set_round(5);
        let round = a.lane.open(SpanKind::Round);
        a.send(NodeId(1), &block_message(9)).unwrap();
        assert_eq!(b.recv().unwrap(), (NodeId(0), block_message(9)));

        // multicast: every listed peer, nobody else.
        a.multicast(&[NodeId(1), NodeId(2)], &block_message(11))
            .unwrap();
        assert_eq!(b.recv().unwrap(), (NodeId(0), block_message(11)));
        assert_eq!(c.recv().unwrap(), (NodeId(0), block_message(11)));
        assert!(b.recv_timeout(Duration::from_millis(1)).unwrap().is_none());

        // recv and recv_timeout: value, sender and the timeout's None.
        b.send(NodeId(0), &block_message(13)).unwrap();
        assert_eq!(a.recv().unwrap(), (NodeId(1), block_message(13)));
        c.send(NodeId(0), &Message::Shutdown).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some((NodeId(2), Message::Shutdown))
        );
        assert!(a.recv_timeout(Duration::from_millis(1)).unwrap().is_none());
        a.lane.close(round);

        // An error of the inner transport comes back as it was.
        assert!(matches!(
            a.send(NodeId(9), &Message::Shutdown),
            Err(TransportError::UnknownPeer(NodeId(9)))
        ));

        // One span per call, children of the round, stamped with its id.
        let lanes = hub.collect();
        let kinds: Vec<SpanKind> = lanes[0].spans.iter().map(|s| s.kind).collect();
        use SpanKind::*;
        assert_eq!(
            kinds,
            [Round, Send, Multicast, Recv, RecvTimeout, RecvTimeout, Send]
        );
        for s in &lanes[0].spans[1..6] {
            assert_eq!((s.parent, s.round), (0, 5));
            assert!(s.end_ns >= s.start_ns);
        }
        assert_eq!(lanes[0].spans[6].parent, NO_PARENT);
    }

    /// A transport on which every call fails.
    struct Dead;

    impl Transport for Dead {
        fn local_id(&self) -> NodeId {
            NodeId(1)
        }
        fn send(&self, _: NodeId, _: &Message) -> Result<(), TransportError> {
            Err(TransportError::Disconnected)
        }
        fn recv(&self) -> Result<(NodeId, Message), TransportError> {
            Err(TransportError::Disconnected)
        }
        fn recv_timeout(&self, _: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
            Err(TransportError::Io(std::io::ErrorKind::BrokenPipe.into()))
        }
    }

    #[test]
    fn traced_transport_passes_errors_through_and_still_records_the_call() {
        let hub = TraceHub::default();
        let t = TracedTransport::new(Dead, hub.lane(Role::Aggregator, 1));
        assert!(matches!(
            t.send(NodeId(0), &Message::Shutdown),
            Err(TransportError::Disconnected)
        ));
        assert!(matches!(
            t.multicast(&[NodeId(0)], &Message::Shutdown),
            Err(TransportError::Disconnected)
        ));
        assert!(matches!(t.recv(), Err(TransportError::Disconnected)));
        assert!(matches!(
            t.recv_timeout(Duration::ZERO),
            Err(TransportError::Io(_))
        ));
        assert_eq!(hub.collect()[0].spans.len(), 4);
    }
}

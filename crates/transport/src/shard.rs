//! Per-shard transport lanes for multi-aggregator sharding (§4).
//!
//! The paper's testbed runs the workers against N parallel aggregators,
//! each serving a round-robin slice of the block index space, so the
//! aggregation bandwidth scales with the aggregator count. At the
//! transport layer that means every worker holds **one endpoint per
//! shard** — in the real system one RDMA QP / UDP socket per
//! aggregator — instead of a single connection to a single aggregator.
//!
//! Two pieces live here:
//!
//! * [`ShardedMesh`] builds one independent full mesh per shard (so
//!   per-shard queues, and fault plans keyed by shard) and hands out
//!   each worker's per-shard lanes plus each shard's aggregator
//!   endpoint.
//! * [`ShardBond`] bonds a worker's per-shard lanes back into one
//!   [`Transport`]: sends are routed to the lane owning the destination
//!   aggregator, receives poll the lanes fairly. This lets engines
//!   written against a single transport (e.g. the Algorithm 2 recovery
//!   worker) run sharded unchanged, while engines that want per-shard
//!   control (the sharded lossless worker) take the raw lanes.

use std::cell::Cell;
use std::time::{Duration, Instant};

use omnireduce_telemetry::Telemetry;

use crate::channel::{ChannelNetwork, ChannelTransport};
use crate::fault::{ChaosNetwork, ChaosTransport, FaultPlan};
use crate::message::{Message, NodeId};
use crate::{Transport, TransportError};

/// How long one lane is polled before rotating to the next while a
/// bonded receive waits for traffic. Small enough that a quiet lane
/// cannot starve a busy one by more than a fraction of a millisecond.
const LANE_POLL: Duration = Duration::from_micros(200);

/// Bonds one endpoint per shard into a single [`Transport`].
///
/// Sends to aggregator node `first_aggregator + s` are routed onto lane
/// `s` (each lane is a different mesh, whose aggregator endpoint is
/// owned by a different engine thread). Sends to worker nodes are
/// routed onto lane 0 — every shard mesh carries all worker node ids,
/// and a worker's bond receives from all of its lanes, so any lane
/// reaches it. Receives poll the lanes round-robin starting after the
/// lane that last delivered, so a chatty shard cannot starve the rest.
pub struct ShardBond<T: Transport> {
    lanes: Vec<T>,
    first_aggregator: u16,
    /// Next lane to poll first (fairness rotation). `Cell` because
    /// [`Transport::recv`] takes `&self`; the bond is `Send` but not
    /// shared across threads.
    cursor: Cell<usize>,
}

impl<T: Transport> ShardBond<T> {
    /// Bonds `lanes` (index = shard) owned by the node whose aggregator
    /// ids start at `first_aggregator`.
    ///
    /// # Panics
    /// Panics when `lanes` is empty or the lanes disagree on the local
    /// node id.
    pub fn new(lanes: Vec<T>, first_aggregator: u16) -> Self {
        assert!(!lanes.is_empty(), "bond needs at least one lane");
        let local = lanes[0].local_id();
        for l in &lanes {
            assert_eq!(l.local_id(), local, "lanes must share a local id");
        }
        ShardBond {
            lanes,
            first_aggregator,
            cursor: Cell::new(0),
        }
    }

    /// Number of shards bonded.
    pub fn num_shards(&self) -> usize {
        self.lanes.len()
    }

    /// The lane a message to `peer` is routed onto. Shard `s`'s hot
    /// standby (node `first_aggregator + num_shards + s`) lives in the
    /// same per-shard mesh as its primary, so it shares lane `s`.
    fn lane_of(&self, peer: NodeId) -> Result<usize, TransportError> {
        if peer.0 < self.first_aggregator {
            return Ok(0);
        }
        let s = (peer.0 - self.first_aggregator) as usize;
        if s < 2 * self.lanes.len() {
            Ok(s % self.lanes.len())
        } else {
            Err(TransportError::UnknownPeer(peer))
        }
    }

    /// One fair polling sweep: every lane once, `slice` each.
    fn poll_once(&self, slice: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
        let n = self.lanes.len();
        let start = self.cursor.get();
        for i in 0..n {
            let lane = (start + i) % n;
            if let Some(m) = self.lanes[lane].recv_timeout(slice)? {
                self.cursor.set((lane + 1) % n);
                return Ok(Some(m));
            }
        }
        Ok(None)
    }
}

impl<T: Transport> Transport for ShardBond<T> {
    fn local_id(&self) -> NodeId {
        self.lanes[0].local_id()
    }

    fn send(&self, peer: NodeId, msg: &Message) -> Result<(), TransportError> {
        self.lanes[self.lane_of(peer)?].send(peer, msg)
    }

    fn recv(&self) -> Result<(NodeId, Message), TransportError> {
        loop {
            if let Some(m) = self.poll_once(LANE_POLL)? {
                return Ok(m);
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            if let Some(m) = self.poll_once(remaining.min(LANE_POLL))? {
                return Ok(Some(m));
            }
        }
    }
}

/// One independent mesh per shard, all sharing the node-id layout of the
/// unsharded mesh (workers `0..W`, aggregator of shard `s` at node
/// `W + s`, and with standbys shard `s`'s hot standby at `W + S + s`), so
/// engines keep their node ids unchanged.
///
/// In shard `s`'s mesh only the worker endpoints, aggregator `W + s` and
/// standby `W + S + s` are ever taken; the other ids exist but stay
/// silent.
pub struct ShardedMesh<T: Transport> {
    /// `shards[s][node]` = node's endpoint in shard `s`'s mesh.
    shards: Vec<Vec<Option<T>>>,
    num_workers: usize,
    standby: bool,
}

impl ShardedMesh<ChannelTransport> {
    /// `num_shards` plain channel meshes for `num_workers` workers, with
    /// a hot-standby node per shard when `standby` is set.
    pub fn channels(num_workers: usize, num_shards: usize, standby: bool) -> Self {
        Self::build(num_workers, num_shards, standby, |_, n| {
            ChannelNetwork::new(n).endpoints()
        })
    }
}

impl ShardedMesh<ChaosTransport<ChannelTransport>> {
    /// `plans.len()` channel meshes, shard `s`'s endpoints wrapped in its
    /// **own** `plans[s]` — faults are keyed by shard, so a chaos
    /// schedule can drop only shard 1's packets, straggle only shard 2's
    /// links, or crash a single non-primary aggregator while the other
    /// shards stay healthy. Every shard's fault counters are mirrored
    /// into `telemetry` (`transport.fault.*`) when one is given.
    pub fn chaos(
        num_workers: usize,
        plans: &[FaultPlan],
        standby: bool,
        telemetry: Option<&Telemetry>,
    ) -> Self {
        Self::build(num_workers, plans.len(), standby, |s, n| {
            ChaosNetwork::wrap(ChannelNetwork::new(n).endpoints(), &plans[s], telemetry)
        })
    }
}

impl<T: Transport> ShardedMesh<T> {
    /// Builds `num_shards` meshes; `mesh(s, n)` returns the `n` endpoints
    /// of shard `s`'s fresh mesh in node-id order.
    fn build(
        num_workers: usize,
        num_shards: usize,
        standby: bool,
        mesh: impl Fn(usize, usize) -> Vec<T>,
    ) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let extra = if standby { 2 * num_shards } else { num_shards };
        let shards = (0..num_shards)
            .map(|s| mesh(s, num_workers + extra).into_iter().map(Some).collect())
            .collect();
        ShardedMesh {
            shards,
            num_workers,
            standby,
        }
    }

    /// Number of shards (aggregators).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Takes worker `w`'s lane into every shard mesh, index = shard.
    pub fn worker_lanes(&mut self, w: usize) -> Vec<T> {
        assert!(w < self.num_workers, "node {w} is not a worker");
        self.shards
            .iter_mut()
            .map(|mesh| mesh[w].take().expect("endpoint already taken"))
            .collect()
    }

    /// Takes worker `w`'s lanes bonded into a single transport.
    pub fn worker_bond(&mut self, w: usize) -> ShardBond<T> {
        let first_agg = self.num_workers as u16;
        ShardBond::new(self.worker_lanes(w), first_agg)
    }

    /// Takes shard `s`'s aggregator endpoint (node `W + s` in mesh `s`).
    pub fn aggregator_endpoint(&mut self, s: usize) -> T {
        self.shards[s][self.num_workers + s]
            .take()
            .expect("endpoint already taken")
    }

    /// Takes shard `s`'s hot-standby endpoint (node `W + S + s` in mesh
    /// `s`). Only available on meshes built with standbys.
    pub fn standby_endpoint(&mut self, s: usize) -> T {
        assert!(self.standby, "mesh built without standby nodes");
        let node = self.num_workers + self.shards.len() + s;
        self.shards[s][node].take().expect("endpoint already taken")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bond_routes_sends_by_aggregator_node() {
        let mut mesh = ShardedMesh::channels(2, 3, false);
        let bond = mesh.worker_bond(0);
        let aggs: Vec<_> = (0..3).map(|s| mesh.aggregator_endpoint(s)).collect();
        for (s, agg) in aggs.iter().enumerate() {
            bond.send(NodeId((2 + s) as u16), &Message::Start { seq: s as u64 })
                .unwrap();
            let (from, msg) = agg.recv().unwrap();
            assert_eq!(from, NodeId(0));
            assert_eq!(msg, Message::Start { seq: s as u64 });
        }
    }

    #[test]
    fn bond_receives_from_every_lane() {
        let mut mesh = ShardedMesh::channels(1, 4, false);
        let bond = mesh.worker_bond(0);
        let aggs: Vec<_> = (0..4).map(|s| mesh.aggregator_endpoint(s)).collect();
        for (s, agg) in aggs.iter().enumerate() {
            agg.send(NodeId(0), &Message::Start { seq: s as u64 })
                .unwrap();
        }
        let mut seen: Vec<u64> = (0..4)
            .map(|_| match bond.recv().unwrap() {
                (_, Message::Start { seq }) => seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bond_send_to_unknown_shard_errors() {
        let mut mesh = ShardedMesh::channels(1, 2, false);
        let bond = mesh.worker_bond(0);
        let err = bond.send(NodeId(9), &Message::Shutdown).unwrap_err();
        assert!(matches!(err, TransportError::UnknownPeer(NodeId(9))));
    }

    #[test]
    fn bond_routes_standby_onto_the_primary_lane() {
        // 2 workers, 2 shards with standbys: shard s's standby (node
        // 4 + s) must be reachable over lane s.
        let mut mesh = ShardedMesh::channels(2, 2, true);
        let bond = mesh.worker_bond(0);
        for s in 0..2usize {
            let standby = mesh.standby_endpoint(s);
            bond.send(NodeId((4 + s) as u16), &Message::Start { seq: s as u64 })
                .unwrap();
            let (from, msg) = standby.recv().unwrap();
            assert_eq!(from, NodeId(0));
            assert_eq!(msg, Message::Start { seq: s as u64 });
        }
        // Beyond the standby range is still unknown.
        let err = bond.send(NodeId(6), &Message::Shutdown).unwrap_err();
        assert!(matches!(err, TransportError::UnknownPeer(NodeId(6))));
    }

    #[test]
    fn bond_recv_timeout_expires_across_lanes() {
        let mut mesh = ShardedMesh::channels(1, 3, false);
        let bond = mesh.worker_bond(0);
        let got = bond.recv_timeout(Duration::from_millis(5)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn bond_cross_thread_round_trip_per_shard() {
        let mut mesh = ShardedMesh::channels(1, 2, false);
        let bond = mesh.worker_bond(0);
        let mut handles = Vec::new();
        for s in 0..2usize {
            let agg = mesh.aggregator_endpoint(s);
            handles.push(thread::spawn(move || {
                let (from, msg) = agg.recv().unwrap();
                assert_eq!(msg, Message::Start { seq: s as u64 });
                agg.send(from, &Message::Start { seq: 10 + s as u64 })
                    .unwrap();
            }));
        }
        for s in 0..2u64 {
            bond.send(NodeId(1 + s as u16), &Message::Start { seq: s })
                .unwrap();
        }
        let mut seen: Vec<u64> = (0..2)
            .map(|_| match bond.recv().unwrap() {
                (_, Message::Start { seq }) => seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![10, 11]);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn chaos_mesh_wraps_each_shard_with_its_own_plan() {
        // Shard 0 clean, shard 1's aggregator crashes on its first
        // data-plane send: shard 0's results arrive at the worker,
        // shard 1's black-hole (fault plans are keyed by shard).
        use crate::message::{Entry, Packet, PacketKind};
        let data = |slot: u16| {
            Message::Block(Packet {
                kind: PacketKind::Result,
                ver: 0,
                epoch: 0,
                slot,
                stream: 0,
                wid: 0,
                entries: vec![Entry::data(0, 0, vec![1.0])],
            })
        };
        let plans = vec![FaultPlan::new(7), FaultPlan::new(7).crash_after(2, 0)];
        let mut mesh = ShardedMesh::chaos(1, &plans, false, None);
        let bond = mesh.worker_bond(0);
        let agg0 = mesh.aggregator_endpoint(0);
        let agg1 = mesh.aggregator_endpoint(1);
        agg0.send(NodeId(0), &data(0)).unwrap();
        agg1.send(NodeId(0), &data(1)).unwrap();
        let (_, got) = bond.recv().unwrap();
        match got {
            Message::Block(p) => assert_eq!(p.slot, 0, "only shard 0 may deliver"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(bond
            .recv_timeout(Duration::from_millis(20))
            .unwrap()
            .is_none());
        assert!(agg1.is_crashed());
    }
}

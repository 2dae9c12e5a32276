//! Deploying a group (DESIGN §18): N workers against A aggregator shards,
//! plus a hot standby per shard when the config asks for one, each node
//! on its own OS thread.
//!
//! [`run`] is the one place that starts a group, runs its rounds, winds
//! it down and collects what happened; every harness builds its own mesh
//! and hands the endpoints here. Its rules: each node makes its endpoint
//! on its own thread ([`Nodes`]); failures are data ([`GroupOutcome`]);
//! a worker says goodbye after its last attempted round, failed or not;
//! aggregator engines outlive every worker, so a crashed shard stays
//! silent instead of closing its channel; and with a [`RoundHook`] the
//! rounds run in lockstep (the tenant service), otherwise freely.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use omnireduce_telemetry::Telemetry;
use omnireduce_tensor::Tensor;
use omnireduce_transport::{Transport, TransportError};

use crate::aggregator::{AggregatorStats, OmniAggregator};
use crate::config::OmniConfig;
use crate::error::ProtocolError;
use crate::recovery::{RecoveryAggregator, RecoveryAggregatorStats, RecoveryStats, RecoveryWorker};
use crate::worker::{OmniWorker, WorkerStats};

/// A protocol engine pair the driver can deploy: a worker and an
/// aggregator over any transport. Implemented by [`Lossless`]
/// (Algorithm 1) and [`Recovery`] (Algorithm 2).
pub trait Engine {
    /// The worker engine over transport `T`.
    type Worker<T: Transport>;
    /// The aggregator engine over transport `T` (also the standby).
    type Aggregator<T: Transport>;
    /// Worker traffic counters.
    type WorkerStats: Copy + Send;
    /// Aggregator counters.
    type AggStats: Copy + Send;
    /// Why a worker's round failed, or an aggregator stopped serving.
    type Error: fmt::Debug + Send;

    /// Builds a worker, attached to `telemetry` when one is given.
    fn worker<T: Transport>(
        t: T,
        cfg: OmniConfig,
        telemetry: Option<&Telemetry>,
    ) -> Self::Worker<T>;
    /// Runs one AllReduce in place.
    fn allreduce<T: Transport>(
        w: &mut Self::Worker<T>,
        tensor: &mut Tensor,
    ) -> Result<(), Self::Error>;
    /// The worker's counters so far.
    fn stats<T: Transport>(w: &Self::Worker<T>) -> Self::WorkerStats;
    /// Wire bytes in `stats`.
    fn bytes_sent(stats: &Self::WorkerStats) -> u64;
    /// Wire bytes the worker sent to each shard (index = shard).
    fn shard_bytes<T: Transport>(w: &Self::Worker<T>) -> Vec<u64>;
    /// Says goodbye to every shard.
    fn shutdown<T: Transport>(w: Self::Worker<T>) -> Result<(), TransportError>;
    /// Builds an aggregator (or standby, by node id), attached to
    /// `telemetry` when one is given.
    fn aggregator<T: Transport>(
        t: T,
        cfg: OmniConfig,
        telemetry: Option<&Telemetry>,
    ) -> Self::Aggregator<T>;
    /// Serves until every worker has said goodbye.
    fn run<T: Transport>(a: &mut Self::Aggregator<T>) -> Result<(), Self::Error>;
    /// The aggregator's counters.
    fn agg_stats<T: Transport>(a: &Self::Aggregator<T>) -> Self::AggStats;
}

/// Algorithm 1 over reliable transports: [`OmniWorker`] and
/// [`OmniAggregator`].
pub enum Lossless {}

/// Algorithm 2 with loss recovery: [`RecoveryWorker`] and
/// [`RecoveryAggregator`] (primaries and hot standbys).
pub enum Recovery {}

/// Both engine pairs have the same method names and shapes, so one body
/// serves both: `engine!(Marker, Worker, Aggregator, WorkerStats,
/// AggStats, Error)`.
macro_rules! engine {
    ($marker:ty, $worker:ident, $agg:ident, $wstats:ty, $astats:ty, $err:ty) => {
        impl Engine for $marker {
            type Worker<T: Transport> = $worker<T>;
            type Aggregator<T: Transport> = $agg<T>;
            type WorkerStats = $wstats;
            type AggStats = $astats;
            type Error = $err;

            fn worker<T: Transport>(
                t: T,
                cfg: OmniConfig,
                telemetry: Option<&Telemetry>,
            ) -> $worker<T> {
                match telemetry {
                    Some(telemetry) => $worker::with_telemetry(t, cfg, telemetry),
                    None => $worker::new(t, cfg),
                }
            }
            fn allreduce<T: Transport>(
                w: &mut $worker<T>,
                tensor: &mut Tensor,
            ) -> Result<(), $err> {
                w.allreduce(tensor)
            }
            fn stats<T: Transport>(w: &$worker<T>) -> $wstats {
                w.stats()
            }
            fn bytes_sent(stats: &$wstats) -> u64 {
                stats.bytes_sent
            }
            fn shard_bytes<T: Transport>(w: &$worker<T>) -> Vec<u64> {
                w.shard_bytes()
            }
            fn shutdown<T: Transport>(w: $worker<T>) -> Result<(), TransportError> {
                w.shutdown()
            }
            fn aggregator<T: Transport>(
                t: T,
                cfg: OmniConfig,
                telemetry: Option<&Telemetry>,
            ) -> $agg<T> {
                match telemetry {
                    Some(telemetry) => $agg::with_telemetry(t, cfg, telemetry),
                    None => $agg::new(t, cfg),
                }
            }
            fn run<T: Transport>(a: &mut $agg<T>) -> Result<(), $err> {
                a.run()
            }
            fn agg_stats<T: Transport>(a: &$agg<T>) -> $astats {
                a.stats
            }
        }
    };
}

engine!(
    Lossless,
    OmniWorker,
    OmniAggregator,
    WorkerStats,
    AggregatorStats,
    TransportError
);
engine!(
    Recovery,
    RecoveryWorker,
    RecoveryAggregator,
    RecoveryStats,
    RecoveryAggregatorStats,
    ProtocolError
);

/// Makes one node's endpoint; called on that node's own thread.
pub(crate) type MakeEndpoint<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// An endpoint built beforehand, handed to its node's thread as is.
pub(crate) fn ready<'a, T: Send + 'a>(endpoint: T) -> MakeEndpoint<'a, T> {
    Box::new(move || endpoint)
}

/// Every node of one group, by role: workers in worker order,
/// aggregators and standbys in shard order.
pub struct Nodes<'a, W, A> {
    /// One per worker.
    pub(crate) workers: Vec<MakeEndpoint<'a, W>>,
    /// One per aggregator shard.
    pub(crate) aggregators: Vec<MakeEndpoint<'a, A>>,
    /// One per shard with [`OmniConfig::hot_standby`], else none.
    pub(crate) standbys: Vec<MakeEndpoint<'a, A>>,
}

impl<'a, T: Transport + 'a> Nodes<'a, T, T> {
    /// A flat mesh indexed by node id: workers, shards, then standbys.
    pub fn mesh(cfg: &OmniConfig, endpoints: Vec<T>) -> Self {
        assert_eq!(endpoints.len(), cfg.mesh_size(), "one endpoint per node");
        Self::in_node_order(cfg, endpoints.into_iter().map(ready))
    }

    /// Every node calls `make(node_id)` on its own thread — for
    /// transports whose endpoints are built together (TCP, UDP).
    pub fn per_node<F: Fn(u16) -> T + Sync>(cfg: &OmniConfig, make: &'a F) -> Self {
        let nodes = 0..cfg.mesh_size() as u16;
        Self::in_node_order(
            cfg,
            nodes.map(|node| Box::new(move || make(node)) as MakeEndpoint<'a, T>),
        )
    }

    fn in_node_order(
        cfg: &OmniConfig,
        mut ends: impl Iterator<Item = MakeEndpoint<'a, T>>,
    ) -> Self {
        Nodes {
            workers: ends.by_ref().take(cfg.num_workers).collect(),
            aggregators: ends.by_ref().take(cfg.num_aggregators).collect(),
            standbys: ends.collect(),
        }
    }
}

/// Paces a lockstep group from the calling thread.
pub trait RoundHook {
    /// Before a round's start barrier.
    fn begin(&mut self);
    /// After a round's end barrier, with the wire bytes the group's
    /// workers sent in the round's successful allreduces and the wall
    /// time from the start barrier to the end barrier.
    fn end(&mut self, bytes: u64, nanos: u64);
}

/// One worker's run.
pub struct WorkerRun<E: Engine> {
    /// `Ok` when every round completed; the first failure otherwise.
    pub result: Result<(), E::Error>,
    /// Counters up to completion or failure.
    pub stats: E::WorkerStats,
    /// Wire bytes sent per shard; sums to the stats' bytes sent.
    pub shard_bytes: Vec<u64>,
    /// Tensors of the completed rounds (shorter than the round count
    /// when a round failed).
    pub outputs: Vec<Tensor>,
    /// Wall time of each attempted round, the failed one included.
    pub round_nanos: Vec<u64>,
    /// Outcome of the goodbye fan-out (best effort on a faulted fabric).
    pub shutdown: Result<(), TransportError>,
}

/// What one aggregator or standby returned, and its counters.
pub type EngineRun<E> = (Result<(), <E as Engine>::Error>, <E as Engine>::AggStats);

/// Everything that happened in one group run. Nothing here panics.
pub struct GroupOutcome<E: Engine> {
    /// Per worker.
    pub workers: Vec<WorkerRun<E>>,
    /// Per aggregator shard.
    pub aggs: Vec<EngineRun<E>>,
    /// Per hot standby (empty without).
    pub standbys: Vec<EngineRun<E>>,
}

/// A group run in which everything succeeded (see
/// [`GroupOutcome::expect_ok`]).
pub struct GroupResult<E: Engine> {
    /// `outputs[w][r]` = worker `w`'s tensor after round `r`.
    pub outputs: Vec<Vec<Tensor>>,
    /// Per-worker counters.
    pub stats: Vec<E::WorkerStats>,
    /// `shard_bytes[w][s]` = wire bytes worker `w` sent to shard `s`;
    /// row sums equal the stats' bytes sent.
    pub shard_bytes: Vec<Vec<u64>>,
    /// Per-shard aggregator counters.
    pub agg_stats: Vec<E::AggStats>,
}

impl<E: Engine> GroupOutcome<E> {
    /// The view of a run that had to succeed.
    ///
    /// # Panics
    /// Panics on the first failed round, goodbye, aggregator or standby.
    pub fn expect_ok(self) -> GroupResult<E> {
        let mut res = GroupResult {
            outputs: Vec::new(),
            stats: Vec::new(),
            shard_bytes: Vec::new(),
            agg_stats: self.aggs.iter().map(|(_, stats)| *stats).collect(),
        };
        for (w, run) in self.workers.into_iter().enumerate() {
            if let Err(e) = run.result {
                panic!("worker {w}: allreduce failed: {e:?}");
            }
            if let Err(e) = run.shutdown {
                panic!("worker {w}: shutdown failed: {e:?}");
            }
            res.outputs.push(run.outputs);
            res.stats.push(run.stats);
            res.shard_bytes.push(run.shard_bytes);
        }
        // Primaries first, then standbys, in shard order.
        for (i, (result, _)) in self.aggs.iter().chain(&self.standbys).enumerate() {
            if let Err(e) = result {
                panic!("aggregator engine {i} failed: {e:?}");
            }
        }
        res
    }
}

/// The lockstep barriers and the byte tally of the running round. The
/// tally publishes nothing else, and the end barrier orders every
/// worker's add before the calling thread's swap, so it is `Relaxed`.
struct Pace {
    start: Barrier,
    end: Barrier,
    bytes: AtomicU64,
}

/// Deploys one group: every aggregator, standby and worker on its own
/// thread, `inputs[w][r]` as worker `w`'s tensor for round `r`, each
/// engine attached to `telemetry` when one is given. With a `lockstep`
/// hook the rounds run in lockstep, paced by it.
///
/// # Panics
/// Panics when `inputs` does not hold one set of equally many rounds
/// per worker, or a node's thread panics.
pub fn run<'n, E: Engine>(
    cfg: &OmniConfig,
    nodes: Nodes<'n, impl Transport, impl Transport>,
    inputs: Vec<Vec<Tensor>>,
    telemetry: Option<&Telemetry>,
    lockstep: Option<&mut dyn RoundHook>,
) -> GroupOutcome<E> {
    assert_eq!(
        inputs.len(),
        nodes.workers.len(),
        "one input set per worker"
    );
    let rounds = inputs.first().map_or(0, Vec::len);
    assert!(
        inputs.iter().all(|i| i.len() == rounds),
        "same round count per worker"
    );
    let pace = lockstep.is_some().then(|| Pace {
        start: Barrier::new(inputs.len() + 1),
        end: Barrier::new(inputs.len() + 1),
        bytes: AtomicU64::new(0),
    });

    // Engines that are done serving wait here, endpoint open, until every
    // worker has been joined: a crashed shard stays a silent peer.
    let workers_joined = Barrier::new(nodes.aggregators.len() + nodes.standbys.len() + 1);

    thread::scope(|scope| {
        let spawn_engine = |name: String, make: MakeEndpoint<'n, _>| {
            let workers_joined = &workers_joined;
            thread::Builder::new()
                .name(name)
                .spawn_scoped(scope, move || {
                    let mut agg = E::aggregator(make(), cfg.clone(), telemetry);
                    let result = E::run(&mut agg);
                    workers_joined.wait();
                    (result, E::agg_stats(&agg))
                })
                .expect("failed to spawn aggregator thread")
        };
        let aggs: Vec<_> = (nodes.aggregators.into_iter().enumerate())
            .map(|(s, make)| spawn_engine(format!("shard{s}-aggregator"), make))
            .collect();
        let standbys: Vec<_> = (nodes.standbys.into_iter().enumerate())
            .map(|(s, make)| spawn_engine(format!("shard{s}-standby"), make))
            .collect();
        let workers: Vec<_> = (nodes.workers.into_iter().zip(inputs).enumerate())
            .map(|(w, (make, tensors))| {
                let pace = pace.as_ref();
                thread::Builder::new()
                    .name(format!("worker{w}"))
                    .spawn_scoped(scope, move || {
                        let worker = E::worker(make(), cfg.clone(), telemetry);
                        run_worker::<E, _>(worker, tensors, pace)
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();

        if let (Some(hook), Some(pace)) = (lockstep, &pace) {
            for _ in 0..rounds {
                hook.begin();
                let t0 = Instant::now();
                pace.start.wait();
                pace.end.wait();
                let nanos = t0.elapsed().as_nanos() as u64;
                hook.end(pace.bytes.swap(0, Ordering::Relaxed), nanos);
            }
        }
        let workers: Vec<WorkerRun<E>> = workers
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        workers_joined.wait();
        let join = |handles: Vec<thread::ScopedJoinHandle<'_, EngineRun<E>>>| {
            (handles.into_iter())
                .map(|h| h.join().expect("aggregator thread panicked"))
                .collect()
        };
        GroupOutcome {
            workers,
            aggs: join(aggs),
            standbys: join(standbys),
        }
    })
}

/// One worker's rounds, then its goodbye.
fn run_worker<E: Engine, T: Transport>(
    mut worker: E::Worker<T>,
    tensors: Vec<Tensor>,
    pace: Option<&Pace>,
) -> WorkerRun<E> {
    let mut result = Ok(());
    let mut outputs = Vec::with_capacity(tensors.len());
    let mut round_nanos = Vec::with_capacity(tensors.len());
    let mut sent = 0;
    for mut tensor in tensors {
        if let Some(p) = pace {
            p.start.wait();
        }
        if result.is_ok() {
            let t0 = Instant::now();
            result = E::allreduce(&mut worker, &mut tensor);
            round_nanos.push(t0.elapsed().as_nanos() as u64);
            if result.is_ok() {
                outputs.push(tensor);
                if let Some(p) = pace {
                    let now = E::bytes_sent(&E::stats(&worker));
                    p.bytes.fetch_add(now - sent, Ordering::Relaxed);
                    sent = now;
                }
            }
        }
        match pace {
            // The calling thread and the healthy peers still cross every
            // barrier, so a failed worker does too.
            Some(p) => {
                p.end.wait();
            }
            None if result.is_err() => break,
            None => {}
        }
    }
    let stats = E::stats(&worker);
    let shard_bytes = E::shard_bytes(&worker);
    let shutdown = E::shutdown(worker);
    WorkerRun {
        result,
        stats,
        shard_bytes,
        outputs,
        round_nanos,
        shutdown,
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use omnireduce_transport::fault::{ChaosNetwork, FaultPlan};
    use omnireduce_transport::ChannelNetwork;

    use super::*;
    use crate::config::DegradedMode;
    use crate::testing::with_deadline;

    /// Counts the rounds a lockstep run paced and what it reported.
    #[derive(Default)]
    struct Tally {
        begins: usize,
        bytes: Vec<u64>,
        nanos: Vec<u64>,
    }

    impl RoundHook for Tally {
        fn begin(&mut self) {
            self.begins += 1;
        }
        fn end(&mut self, bytes: u64, nanos: u64) {
            self.bytes.push(bytes);
            self.nanos.push(nanos);
        }
    }

    /// `rounds` recovery rounds of `workers` workers against 2 shards,
    /// over a channel mesh wrapped in `plan(cfg)`.
    fn chaos_run(
        workers: usize,
        rounds: usize,
        plan: impl Fn(&OmniConfig) -> FaultPlan,
        lockstep: Option<&mut dyn RoundHook>,
    ) -> GroupOutcome<Recovery> {
        let cfg = OmniConfig::new(workers, 512)
            .with_block_size(8)
            .with_fusion(2)
            .with_streams(2)
            .with_aggregators(2)
            .with_initial_rto(Duration::from_millis(25))
            .with_rto_bounds(Duration::from_millis(25), Duration::from_millis(100))
            .with_max_retransmits(6)
            .with_eviction_timeout(Duration::from_millis(150))
            .with_degraded_mode(DegradedMode::DropWorker);
        let mesh = ChannelNetwork::new(cfg.mesh_size()).endpoints();
        let mesh = ChaosNetwork::wrap(mesh, &plan(&cfg), None);
        let inputs = (0..workers)
            .map(|w| {
                (0..rounds)
                    .map(|r| Tensor::from_vec(vec![(w + r) as f32 + 1.0; 512]))
                    .collect()
            })
            .collect();
        run::<Recovery>(&cfg, Nodes::mesh(&cfg, mesh), inputs, None, lockstep)
    }

    /// Lockstep keeps pacing every round when worker 2 dies in the
    /// first: the hook sees each round once, and the byte counts it is
    /// handed add up to everything the survivors sent.
    #[test]
    fn lockstep_paces_every_round_and_counts_every_byte() {
        with_deadline(Duration::from_secs(60), || {
            let rounds = 3;
            let mut tally = Tally::default();
            // Worker 2 dies after its first 3 data-plane sends.
            let crash = |cfg: &OmniConfig| FaultPlan::new(5).crash_after(cfg.worker_node(2), 3);
            let out = chaos_run(3, rounds, crash, Some(&mut tally));
            let dead = &out.workers[2];
            assert!(dead.result.is_err(), "the crashed worker reported Ok");
            assert_eq!(dead.round_nanos.len(), 1, "it attempts only round 1");
            assert!(dead.outputs.is_empty());
            for o in &out.workers[..2] {
                assert!(o.result.is_ok(), "{:?}", o.result);
                assert_eq!(o.outputs.len(), rounds);
            }
            assert_eq!((tally.begins, tally.nanos.len()), (rounds, rounds));
            let survivors: u64 = out.workers[..2].iter().map(|o| o.stats.bytes_sent).sum();
            assert_eq!(tally.bytes.iter().sum::<u64>(), survivors);
        });
    }

    /// A worker whose round fails still says goodbye: on a plain
    /// (unbonded) 2-shard mesh whose shard 1 crashes, shard 0 has
    /// finished its part of the round and waits for nothing but the
    /// goodbyes — without them it would serve forever.
    #[test]
    fn failed_workers_still_wind_down_the_surviving_shard() {
        with_deadline(Duration::from_secs(60), || {
            let crash =
                |cfg: &OmniConfig| FaultPlan::new(61).crash_after(cfg.aggregator_node(1), 2);
            let out = chaos_run(2, 1, crash, None);
            for (w, o) in out.workers.iter().enumerate() {
                assert!(o.result.is_err(), "worker {w} finished without shard 1");
            }
            assert!(out.aggs[1].0.is_err(), "crashed shard 1 reported Ok");
            let (res0, stats0) = &out.aggs[0];
            assert!(res0.is_ok(), "surviving shard 0 failed: {res0:?}");
            assert_eq!(stats0.evictions, 0, "shard 0 had no cause to evict");
        });
    }
}

//! The six workloads: what each deploys, and one repetition of each.
//!
//! A repetition sets a fresh deployment up from nothing (inputs, mesh or
//! service, warm-up rounds), then drives it closed-loop for its share of
//! the run: a worker starts its next `allreduce` only when the previous
//! one returned, so the client count is the worker count. Every round's
//! output is compared bit for bit with a precomputed reference outside
//! the timed span.

use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use omnireduce_core::config::OmniConfig;
use omnireduce_core::sim::{bitmaps_from_sets, simulate_allreduce, SimSpec};
use omnireduce_core::tenant::{JobRegistry, TenantService, TenantSpec};
use omnireduce_core::testing::quantize;
use omnireduce_core::{OmniAggregator, OmniWorker, RecoveryAggregator, RecoveryWorker};
use omnireduce_simnet::{Bandwidth, RackTopology, SimTime};
use omnireduce_telemetry::alloc::CountingAllocator;
use omnireduce_telemetry::Telemetry;
use omnireduce_tensor::dense::reference_sum;
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::{ChannelNetwork, NodeId, TcpNetwork, Transport, UdpNetwork};

use crate::trace::{LaneTrace, Role, SpanKind, TraceHub, TracedTransport};

/// Template rounds kept per worker of a group; round `r` runs template
/// `r % K`.
const K: usize = 4;
/// Template rounds per tenant. A small tensor has few blocks per column,
/// so how long a round takes (its longest column chain) varies from
/// template to template; more templates bring the mix of every seed
/// closer to the same average.
const TENANT_K: usize = 64;
/// Warm-up rounds before the first measured one: every template once, so
/// buffer pools are full and every connection has carried traffic.
const WARMUP_ROUNDS: usize = K;
/// Workers of the real-engine workloads: with two cores, the smallest
/// group where fan-in and the cross-worker look-ahead are non-trivial.
const GROUP_WORKERS: usize = 4;
/// Rounds in one tenant batch (one `admit` + `run_lossless`).
const TENANT_BATCH_ROUNDS: usize = 64;
const TENANTS: usize = 4;
const TENANT_SHARDS: usize = 2;
/// Workers of the simulated fabric, in racks of 32.
const SIM_WORKERS: usize = 512;
const SIM_RACK_SIZE: usize = 32;
/// A repetition still running this long after its measuring time ran
/// out is stalled: its rounds count as failed instead of hanging the run.
pub const DEADLINE_SLACK: Duration = Duration::from_secs(45);

/// Which protocol engines a group runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Algorithm 1: `OmniWorker` / `OmniAggregator`.
    Lossless,
    /// Algorithm 2: `RecoveryWorker` / `RecoveryAggregator`.
    Recovery,
}

/// What carries a group's messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshKind {
    Channel,
    Tcp,
    Udp,
}

/// What a workload deploys.
#[derive(Debug, Clone)]
pub enum Deployment {
    /// Workers and one aggregator, a thread each, over a real transport.
    Group {
        cfg: OmniConfig,
        engine: EngineKind,
        mesh: MeshKind,
        sparsity: f64,
    },
    /// Concurrent single-worker tenants over one `TenantService`.
    Tenants { cfg: OmniConfig, sparsity: f64 },
    /// `simulate_allreduce` on the sequential engine.
    Simnet { cfg: OmniConfig, density: f64 },
}

/// One workload: its name, why it is in the set, what it deploys.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub deployment: Deployment,
    /// The workload the extra reports run on: the flight-recorder
    /// cross-check of a traced run and `selfcheck`'s unseen-seed row.
    pub extra_reports: bool,
}

fn group_cfg(fusion: usize) -> OmniConfig {
    OmniConfig::new(GROUP_WORKERS, 1 << 20)
        .with_block_size(256)
        .with_fusion(fusion)
        // Pinned to 8: at the default 16 the same binary settles at one of
        // two round times from process to process (README, open questions).
        .with_streams(8)
}

/// The workload set, in the order `BENCHMARK.json` lists it.
pub fn all() -> Vec<Workload> {
    let group = |engine, mesh, sparsity, fusion| Deployment::Group {
        cfg: group_cfg(fusion),
        engine,
        mesh,
        sparsity,
    };
    vec![
        Workload {
            name: "chan_dense",
            why: "dense: every block travels over in-process channels, 9x the bytes and 4x the \
                  packets of chan_sparse, so reduce_into, slots, pool and payload clones have the \
                  most work and bitmap/look-ahead almost none",
            deployment: group(EngineKind::Lossless, MeshKind::Channel, 0.0, 4),
            extra_reports: false,
        },
        Workload {
            name: "chan_sparse",
            why: "90% block sparsity, a tenth of the bytes, so the bitmap scan, the look-ahead and \
                  per-packet engine work are what is left; a faster reduce kernel must show \
                  nothing here",
            deployment: group(EngineKind::Lossless, MeshKind::Channel, 0.9, 4),
            extra_reports: true,
        },
        Workload {
            name: "tcp_sparse",
            why: "chan_sparse's protocol work plus codec and one framed loopback write/read per \
                  message, so transport changes show here and not on chan_*",
            deployment: group(EngineKind::Lossless, MeshKind::Tcp, 0.9, 4),
            extra_reports: false,
        },
        Workload {
            name: "udp_sparse",
            why: "Algorithm 2 recovery engines over loopback UDP at 2 KB datagrams (fusion 2), where \
                  per-datagram cost and the reader-thread hop dominate",
            deployment: Deployment::Group {
                cfg: group_cfg(2).with_fixed_rto(Duration::from_millis(40)),
                engine: EngineKind::Recovery,
                mesh: MeshKind::Udp,
                sparsity: 0.9,
            },
            extra_reports: false,
        },
        Workload {
            name: "tenants_small",
            why: "4 concurrent single-worker tenants of 128 Ki elements through demux, slot \
                  scheduler and sharded worker: many short rounds that a gain for big tensors \
                  can cost",
            deployment: Deployment::Tenants {
                cfg: OmniConfig::new(1, 131_072)
                    .with_block_size(256)
                    .with_fusion(4)
                    .with_streams(8)
                    .with_aggregators(TENANT_SHARDS),
                sparsity: 0.5,
            },
            extra_reports: false,
        },
        Workload {
            name: "simnet_seq",
            why: "single-threaded simulated fabric (512 workers, 8 shards, racks of 32): event-queue \
                  bound, bypasses every real transport, so engine and transport changes leave it flat",
            deployment: Deployment::Simnet {
                cfg: OmniConfig::new(SIM_WORKERS, 1 << 16)
                    .with_block_size(256)
                    .with_fusion(2)
                    .with_streams(2)
                    .with_aggregators(8),
                density: 0.9,
            },
            extra_reports: false,
        },
    ]
}

/// Protocol counts of one repetition, summed over its nodes and over
/// every round it ran (warm-up included: the warm-up is one pass over
/// the templates and the measured rounds are whole passes, so per-round
/// averages of input-determined counts are the same with or without it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Rounds the counts cover.
    pub rounds: u64,
    pub worker_packets: u64,
    pub worker_blocks: u64,
    pub worker_bytes: u64,
    pub worker_results: u64,
    pub agg_results: u64,
    pub retransmissions: u64,
    pub timer_fires: u64,
    pub stale_results: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.rounds += o.rounds;
        self.worker_packets += o.worker_packets;
        self.worker_blocks += o.worker_blocks;
        self.worker_bytes += o.worker_bytes;
        self.worker_results += o.worker_results;
        self.agg_results += o.agg_results;
        self.retransmissions += o.retransmissions;
        self.timer_fires += o.timer_fires;
        self.stale_results += o.stale_results;
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Repetition start → first measured round.
    pub setup_s: f64,
    /// One sample per worker (tenant, sim call) per measured round.
    pub round_ms: Vec<f64>,
    /// Tensor bits reduced per second of round time, in Gbit/s.
    pub tensor_gbps: f64,
    /// Σ worker wire bytes / rounds.
    pub wire_bytes_per_round: f64,
    /// Round samples attempted and failed (error or wrong output).
    pub attempted: u64,
    pub failed: u64,
    pub counts: Counts,
    /// Heap allocations on worker threads inside measured rounds.
    pub worker_allocs: u64,
    /// Spans of a traced repetition.
    pub lanes: Vec<LaneTrace>,
    /// Tenants: one `admit` latency per batch, in µs.
    pub admit_us: Vec<f64>,
    /// Tenants: measured rounds per second, per tenant.
    pub tenant_rates: Vec<f64>,
    pub throttles: u64,
    /// Simnet: events per call, and wall seconds inside the calls.
    pub sim_events: u64,
    pub sim_wall_s: f64,
}

impl Rep {
    /// Percentile `q` of this repetition's own round samples.
    pub fn percentile_ms(&self, q: f64) -> Option<f64> {
        let mut ms = self.round_ms.clone();
        crate::stats::sort(&mut ms);
        (!ms.is_empty()).then(|| crate::stats::percentile(&ms, q))
    }
}

/// How a repetition is instrumented.
#[derive(Clone, Default)]
pub struct Instrument {
    /// Wrap every endpoint in a `TracedTransport` feeding this hub.
    pub hub: Option<Arc<TraceHub>>,
    /// Build the engines `with_telemetry` on this registry.
    pub telemetry: Option<Telemetry>,
}

/// Spreads `seed` so that neighbouring seeds share no template.
fn mix(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// Per-worker template tensors and the reference sum of each template
/// round. Quantized to multiples of 0.25: every reduction order gives
/// the same bits.
pub struct GroupInputs {
    /// `templates[w][k]`.
    pub templates: Vec<Vec<Tensor>>,
    /// `references[k]`.
    pub references: Vec<Tensor>,
}

/// Template round `k`: one quantized tensor per worker.
pub fn template_round(cfg: &OmniConfig, sparsity: f64, seed: u64, k: usize) -> Vec<Tensor> {
    let mut round = gen::workers(
        cfg.num_workers,
        cfg.tensor_len,
        BlockSpec::new(cfg.block_size),
        sparsity,
        1.0,
        OverlapMode::Random,
        mix(seed, k as u64),
    );
    round.iter_mut().for_each(quantize);
    round
}

pub fn group_inputs(cfg: &OmniConfig, sparsity: f64, seed: u64) -> GroupInputs {
    let mut templates: Vec<Vec<Tensor>> = vec![Vec::with_capacity(K); cfg.num_workers];
    let mut references = Vec::with_capacity(K);
    for k in 0..K {
        let round = template_round(cfg, sparsity, seed, k);
        references.push(reference_sum(&round));
        for (w, t) in round.into_iter().enumerate() {
            templates[w].push(t);
        }
    }
    GroupInputs {
        templates,
        references,
    }
}

pub fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.len() == b.len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---------------------------------------------------------------------
// Engines behind one interface
// ---------------------------------------------------------------------

trait WorkerEngine {
    fn allreduce(&mut self, tensor: &mut Tensor) -> Result<(), String>;
    /// This worker's share of the repetition's [`Counts`].
    fn counts(&self) -> Counts;
    fn shutdown(self: Box<Self>) -> Result<(), String>;
}

trait AggEngine {
    fn run(&mut self) -> Result<(), String>;
    /// Result packets multicast so far.
    fn results_sent(&self) -> u64;
}

impl<T: Transport> WorkerEngine for OmniWorker<T> {
    fn allreduce(&mut self, tensor: &mut Tensor) -> Result<(), String> {
        OmniWorker::allreduce(self, tensor).map_err(|e| e.to_string())
    }
    fn counts(&self) -> Counts {
        let s = self.stats();
        Counts {
            worker_packets: s.packets_sent,
            worker_blocks: s.blocks_sent,
            worker_bytes: s.bytes_sent,
            worker_results: s.results_received,
            ..Counts::default()
        }
    }
    fn shutdown(self: Box<Self>) -> Result<(), String> {
        OmniWorker::shutdown(*self).map_err(|e| e.to_string())
    }
}

impl<T: Transport> WorkerEngine for RecoveryWorker<T> {
    fn allreduce(&mut self, tensor: &mut Tensor) -> Result<(), String> {
        RecoveryWorker::allreduce(self, tensor).map_err(|e| format!("{e:?}"))
    }
    fn counts(&self) -> Counts {
        let s = self.stats();
        Counts {
            worker_packets: s.packets_sent,
            worker_blocks: s.blocks_sent,
            worker_bytes: s.bytes_sent,
            // The recovery worker does not count the results it receives;
            // `drive_group` takes them from its aggregator.
            retransmissions: s.retransmissions,
            timer_fires: s.timer_fires,
            stale_results: s.stale_results_ignored,
            ..Counts::default()
        }
    }
    fn shutdown(self: Box<Self>) -> Result<(), String> {
        RecoveryWorker::shutdown(*self).map_err(|e| e.to_string())
    }
}

impl<T: Transport> AggEngine for OmniAggregator<T> {
    fn run(&mut self) -> Result<(), String> {
        OmniAggregator::run(self).map_err(|e| e.to_string())
    }
    fn results_sent(&self) -> u64 {
        self.stats.results_sent
    }
}

impl<T: Transport> AggEngine for RecoveryAggregator<T> {
    fn run(&mut self) -> Result<(), String> {
        RecoveryAggregator::run(self).map_err(|e| format!("{e:?}"))
    }
    fn results_sent(&self) -> u64 {
        self.stats.results_sent
    }
}

fn make_worker<T: Transport + 'static>(
    kind: EngineKind,
    t: T,
    cfg: OmniConfig,
    telemetry: Option<&Telemetry>,
) -> Box<dyn WorkerEngine> {
    match (kind, telemetry) {
        (EngineKind::Lossless, None) => Box::new(OmniWorker::new(t, cfg)),
        (EngineKind::Lossless, Some(tel)) => Box::new(OmniWorker::with_telemetry(t, cfg, tel)),
        (EngineKind::Recovery, None) => Box::new(RecoveryWorker::new(t, cfg)),
        (EngineKind::Recovery, Some(tel)) => Box::new(RecoveryWorker::with_telemetry(t, cfg, tel)),
    }
}

fn make_agg<T: Transport + 'static>(
    kind: EngineKind,
    t: T,
    cfg: OmniConfig,
    telemetry: Option<&Telemetry>,
) -> Box<dyn AggEngine> {
    match (kind, telemetry) {
        (EngineKind::Lossless, None) => Box::new(OmniAggregator::new(t, cfg)),
        (EngineKind::Lossless, Some(tel)) => Box::new(OmniAggregator::with_telemetry(t, cfg, tel)),
        (EngineKind::Recovery, None) => Box::new(RecoveryAggregator::new(t, cfg)),
        (EngineKind::Recovery, Some(tel)) => {
            Box::new(RecoveryAggregator::with_telemetry(t, cfg, tel))
        }
    }
}

// ---------------------------------------------------------------------
// Meshes
// ---------------------------------------------------------------------

/// Attempts at bringing a socket mesh up before giving up.
const MESH_ATTEMPTS: usize = 3;
/// How long one attempt at a TCP mesh may take.
const MESH_TIMEOUT: Duration = Duration::from_secs(10);

/// `n` loopback addresses the OS just handed out: bind port 0, note the
/// port, release. Nothing else in the repository uses fixed ports from
/// this range, and two benchmarks can run side by side.
fn free_addrs(n: usize, udp: bool) -> std::io::Result<Vec<SocketAddr>> {
    let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
    if udp {
        let held: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind(loopback))
            .collect::<Result<_, _>>()?;
        held.iter().map(UdpSocket::local_addr).collect()
    } else {
        let held: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind(loopback))
            .collect::<Result<_, _>>()?;
        held.iter().map(TcpListener::local_addr).collect()
    }
}

/// Brings a full TCP mesh up on fresh loopback ports, every node dialing
/// from its own thread as `establish` requires.
///
/// A released port can be taken again before its node binds it (by
/// another process, or as the source port of one of the mesh's own
/// outgoing connections). That node's `establish` then fails at once
/// while its peers wait for it without end, so an attempt has a time
/// limit and a failed one is abandoned for fresh ports. The abandoned
/// attempt's threads stay blocked in `accept` until the process exits;
/// they cannot be joined.
fn tcp_mesh(n: usize) -> Result<Vec<omnireduce_transport::tcp::TcpTransport>, String> {
    let mut last = String::new();
    for _ in 0..MESH_ATTEMPTS {
        let addrs = free_addrs(n, false).map_err(|e| e.to_string())?;
        let (tx, rx) = mpsc::channel();
        for i in 0..n {
            let (tx, addrs) = (tx.clone(), addrs.clone());
            thread::Builder::new()
                .name(format!("mesh-{i}"))
                .spawn(move || {
                    let _ = tx.send((i, TcpNetwork::establish(NodeId(i as u16), &addrs)));
                })
                .map_err(|e| e.to_string())?;
        }
        drop(tx);
        let deadline = Instant::now() + MESH_TIMEOUT;
        let mut ends: Vec<Option<_>> = (0..n).map(|_| None).collect();
        let mut up = 0;
        while up < n {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok((i, Ok(t))) => {
                    ends[i] = Some(t);
                    up += 1;
                }
                Ok((i, Err(e))) => {
                    last = format!("node {i}: {e}");
                    break;
                }
                Err(_) => {
                    last = format!("{up} of {n} nodes up after {MESH_TIMEOUT:?}");
                    break;
                }
            }
        }
        if up == n {
            return Ok(ends.into_iter().flatten().collect());
        }
    }
    Err(format!("tcp mesh: {last}"))
}

fn udp_mesh(n: usize) -> Result<Vec<omnireduce_transport::udp::UdpTransport>, String> {
    let mut last = String::new();
    for _ in 0..MESH_ATTEMPTS {
        let addrs = free_addrs(n, true).map_err(|e| e.to_string())?;
        let ends: Result<Vec<_>, _> = (0..n)
            .map(|i| UdpNetwork::bind(NodeId(i as u16), &addrs))
            .collect();
        match ends {
            Ok(ends) => return Ok(ends),
            Err(e) => last = e.to_string(),
        }
    }
    Err(format!("udp mesh: {last}"))
}

// ---------------------------------------------------------------------
// A group repetition
// ---------------------------------------------------------------------

#[derive(Default)]
struct WorkerOut {
    /// Measured round times, in round order.
    round_ms: Vec<f64>,
    failed: u64,
    allocs: u64,
    counts: Counts,
    /// When this worker started its first measured round.
    first_measured: Option<Instant>,
    errors: Vec<String>,
}

/// Runs one group to the end of its measuring time over `endpoints`
/// (indexed by node id: workers first, then the aggregator).
fn drive_group<T: Transport + 'static>(
    cfg: &OmniConfig,
    engine: EngineKind,
    inputs: GroupInputs,
    endpoints: Vec<T>,
    budget: Duration,
    inst: &Instrument,
    started: Instant,
) -> Rep {
    let workers = cfg.num_workers;
    assert_eq!(endpoints.len(), cfg.mesh_size());
    let inputs = Arc::new(inputs);
    // Two barriers a round: the first publishes worker 0's decision to
    // stop, the second gives every worker a common start.
    let barrier = Arc::new(Barrier::new(workers));
    let stop = Arc::new(AtomicBool::new(false));
    let mut endpoints = endpoints.into_iter();

    let mut worker_handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let t = endpoints.next().expect("one endpoint per node");
        let lane = inst.hub.as_ref().map(|h| h.lane(Role::Worker, w as u16));
        let (cfg, inputs, barrier, stop) =
            (cfg.clone(), inputs.clone(), barrier.clone(), stop.clone());
        let (hub, telemetry) = (inst.hub.clone(), inst.telemetry.clone());
        let body = move || {
            let mut eng = match &lane {
                Some(l) => make_worker(
                    engine,
                    TracedTransport::new(t, l.clone()),
                    cfg.clone(),
                    telemetry.as_ref(),
                ),
                None => make_worker(engine, t, cfg.clone(), telemetry.as_ref()),
            };
            let mut tensor = Tensor::zeros(cfg.tensor_len);
            let mut out = WorkerOut::default();
            let mut measuring_since = None;
            for r in 0usize.. {
                let measured = r >= WARMUP_ROUNDS;
                if w == 0 {
                    // Whole passes over the templates only, so per-round
                    // byte and packet counts are the same for any length.
                    let due = r % K == 0
                        && measuring_since.is_some_and(|t: Instant| t.elapsed() >= budget);
                    stop.store(due, Ordering::SeqCst);
                }
                barrier.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let k = r % K;
                tensor
                    .as_mut_slice()
                    .copy_from_slice(inputs.templates[w][k].as_slice());
                if let (0, Some(hub)) = (w, &hub) {
                    hub.set_round(r as u32);
                }
                barrier.wait();
                if measured && measuring_since.is_none() {
                    measuring_since = Some(Instant::now());
                    out.first_measured = measuring_since;
                }
                let allocs0 = CountingAllocator::thread_allocations();
                let span = lane.as_ref().map(|l| l.open(SpanKind::Round));
                let t0 = Instant::now();
                let res = eng.allreduce(&mut tensor);
                let dt = t0.elapsed();
                if let (Some(l), Some(s)) = (&lane, span) {
                    l.close(s);
                }
                let allocs = CountingAllocator::thread_allocations() - allocs0;
                let ok = match res {
                    Ok(()) => bits_equal(&tensor, &inputs.references[k]),
                    Err(e) => {
                        out.errors.push(format!("worker {w} round {r}: {e}"));
                        false
                    }
                };
                // A failed warm-up round is a failure all the same.
                if measured || !ok {
                    out.round_ms.push(dt.as_secs_f64() * 1e3);
                    out.allocs += allocs;
                    out.failed += u64::from(!ok);
                }
            }
            out.counts = eng.counts();
            if let Err(e) = eng.shutdown() {
                out.errors.push(format!("worker {w} shutdown: {e}"));
            }
            out
        };
        worker_handles.push(
            thread::Builder::new()
                .name(format!("bench-worker{w}"))
                .spawn(body)
                .expect("spawn worker thread"),
        );
    }

    let agg_handles: Vec<_> = (0..cfg.num_aggregators)
        .map(|a| {
            let t = endpoints.next().expect("one endpoint per node");
            let node = cfg.aggregator_node(a);
            let lane = inst.hub.as_ref().map(|h| h.lane(Role::Aggregator, node));
            let (cfg, telemetry) = (cfg.clone(), inst.telemetry.clone());
            thread::Builder::new()
                .name(format!("bench-agg{a}"))
                .spawn(move || {
                    let mut eng = match &lane {
                        Some(l) => make_agg(
                            engine,
                            TracedTransport::new(t, l.clone()),
                            cfg,
                            telemetry.as_ref(),
                        ),
                        None => make_agg(engine, t, cfg, telemetry.as_ref()),
                    };
                    let span = lane.as_ref().map(|l| l.open(SpanKind::Run));
                    let res = eng.run();
                    if let (Some(l), Some(s)) = (&lane, span) {
                        l.close(s);
                    }
                    (res, eng.results_sent())
                })
                .expect("spawn aggregator thread")
        })
        .collect();

    let outs: Vec<WorkerOut> = worker_handles
        .into_iter()
        .map(|h| h.join().expect("worker thread panicked"))
        .collect();
    let mut rep = Rep::default();
    for h in agg_handles {
        let (res, results) = h.join().expect("aggregator thread panicked");
        if let Err(e) = res {
            eprintln!("omnibench: aggregator failed: {e}");
            rep.failed += 1;
        }
        rep.counts.agg_results += results;
    }

    let rounds = outs[0].round_ms.len();
    for o in &outs {
        o.errors.iter().for_each(|e| eprintln!("omnibench: {e}"));
        rep.attempted += o.round_ms.len() as u64;
        rep.failed += o.failed;
        rep.worker_allocs += o.allocs;
        rep.round_ms.extend_from_slice(&o.round_ms);
        rep.counts += o.counts;
    }
    if engine == EngineKind::Recovery {
        // Every multicast of the aggregator reaches every worker.
        rep.counts.worker_results = rep.counts.agg_results * workers as u64;
    }
    rep.counts.rounds = (WARMUP_ROUNDS + rounds) as u64;
    // A round is over when its slowest worker returns.
    let group_ms: f64 = (0..rounds)
        .map(|r| {
            outs.iter()
                .filter_map(|o| o.round_ms.get(r))
                .fold(0.0, |a, &b| f64::max(a, b))
        })
        .sum();
    if group_ms > 0.0 {
        rep.tensor_gbps = rounds as f64 * cfg.tensor_len as f64 * 32.0 / (group_ms * 1e-3) / 1e9;
    }
    rep.wire_bytes_per_round = rep.counts.worker_bytes as f64 / rep.counts.rounds as f64;
    rep.setup_s = outs[0]
        .first_measured
        .map_or(0.0, |t| t.duration_since(started).as_secs_f64());
    if let Some(hub) = &inst.hub {
        rep.lanes = hub.collect();
    }
    rep
}

fn group_rep(
    cfg: &OmniConfig,
    engine: EngineKind,
    mesh: MeshKind,
    inputs: GroupInputs,
    budget: Duration,
    inst: &Instrument,
    started: Instant,
) -> Result<Rep, String> {
    let n = cfg.mesh_size();
    Ok(match mesh {
        MeshKind::Channel => {
            let ends = ChannelNetwork::new(n).endpoints();
            drive_group(cfg, engine, inputs, ends, budget, inst, started)
        }
        MeshKind::Tcp => drive_group(cfg, engine, inputs, tcp_mesh(n)?, budget, inst, started),
        MeshKind::Udp => drive_group(cfg, engine, inputs, udp_mesh(n)?, budget, inst, started),
    })
}

// ---------------------------------------------------------------------
// A tenants repetition
// ---------------------------------------------------------------------

struct TenantOut {
    round_ms: Vec<f64>,
    failed: u64,
    counts: Counts,
    admit_us: Vec<f64>,
    first_measured: Instant,
}

/// `templates[t][k]`: tenant `t`'s template round `k`. One worker per
/// tenant, so a round's sum is its own input: the template is also the
/// reference.
fn tenant_templates(cfg: &OmniConfig, sparsity: f64, seed: u64) -> Vec<Vec<Tensor>> {
    (0..TENANTS)
        .map(|t| {
            (0..TENANT_K)
                .map(|k| {
                    gen::workers(
                        1,
                        cfg.tensor_len,
                        BlockSpec::new(cfg.block_size),
                        sparsity,
                        1.0,
                        OverlapMode::Random,
                        mix(seed, (t * TENANT_K + k) as u64),
                    )
                    .pop()
                    .expect("one worker")
                })
                .collect()
        })
        .collect()
}

/// What the tenants work on: `templates[t][k]`, and per tenant the
/// tensors of one batch.
struct TenantInputs {
    templates: Vec<Vec<Tensor>>,
    batches: Vec<Vec<Tensor>>,
}

fn tenant_inputs(cfg: &OmniConfig, sparsity: f64, seed: u64) -> TenantInputs {
    TenantInputs {
        templates: tenant_templates(cfg, sparsity, seed),
        batches: (0..TENANTS)
            .map(|_| {
                (0..TENANT_BATCH_ROUNDS)
                    .map(|_| Tensor::zeros(cfg.tensor_len))
                    .collect()
            })
            .collect(),
    }
}

fn tenants_rep(cfg: &OmniConfig, inputs: TenantInputs, budget: Duration, started: Instant) -> Rep {
    let templates = Arc::new(inputs.templates);
    let svc = Arc::new(Mutex::new(TenantService::with_registry(
        TENANT_SHARDS,
        1024,
        JobRegistry::with_limits(TENANTS, vec![]),
    )));
    let warm = Arc::new(Barrier::new(TENANTS));

    let handles: Vec<_> = inputs
        .batches
        .into_iter()
        .enumerate()
        .map(|(t, tensors)| {
            let (cfg, templates, svc, warm) =
                (cfg.clone(), templates.clone(), svc.clone(), warm.clone());
            thread::Builder::new()
                .name(format!("bench-tenant{t}"))
                .spawn(move || {
                    let mut out = TenantOut {
                        round_ms: Vec::new(),
                        failed: 0,
                        counts: Counts::default(),
                        admit_us: Vec::new(),
                        first_measured: Instant::now(),
                    };
                    // The batch's tensors go round: `run_lossless` takes
                    // them, reduces them in place and hands them back, and
                    // the next batch copies the templates over them. The
                    // memory a tenant holds is then the same in every batch.
                    let mut tensors = tensors;
                    let mut batch = |out: &mut TenantOut, measured: bool| {
                        let t0 = Instant::now();
                        let handle = svc
                            .lock()
                            .expect("service poisoned")
                            .admit(TenantSpec::lossless(cfg.clone()))
                            .expect("admission under the cap");
                        let admit_us = t0.elapsed().as_secs_f64() * 1e6;
                        for (r, tensor) in tensors.iter_mut().enumerate() {
                            tensor
                                .as_mut_slice()
                                .copy_from_slice(templates[t][r % TENANT_K].as_slice());
                        }
                        let mut res = handle.run_lossless(vec![std::mem::take(&mut tensors)]);
                        tensors = res.outputs.swap_remove(0);
                        let wrong = tensors
                            .iter()
                            .enumerate()
                            .filter(|(r, o)| !bits_equal(o, &templates[t][r % TENANT_K]))
                            .count() as u64
                            + (TENANT_BATCH_ROUNDS - tensors.len()) as u64;
                        tensors.resize_with(TENANT_BATCH_ROUNDS, || Tensor::zeros(cfg.tensor_len));
                        if measured || wrong > 0 {
                            out.failed += wrong;
                            out.admit_us.push(admit_us);
                            out.round_ms
                                .extend(res.round_nanos.iter().map(|&ns| ns as f64 / 1e6));
                        }
                        let s = res.stats[0];
                        out.counts += Counts {
                            rounds: TENANT_BATCH_ROUNDS as u64,
                            worker_packets: s.packets_sent,
                            worker_blocks: s.blocks_sent,
                            worker_bytes: s.bytes_sent,
                            worker_results: s.results_received,
                            agg_results: res.agg_stats.iter().map(|a| a.results_sent).sum(),
                            ..Counts::default()
                        };
                    };
                    batch(&mut out, false);
                    warm.wait();
                    out.first_measured = Instant::now();
                    while out.first_measured.elapsed() < budget {
                        batch(&mut out, true);
                    }
                    out
                })
                .expect("spawn tenant thread")
        })
        .collect();
    let outs: Vec<TenantOut> = handles
        .into_iter()
        .map(|h| h.join().expect("tenant thread panicked"))
        .collect();
    let snapshot = Arc::try_unwrap(svc)
        .unwrap_or_else(|_| panic!("tenant threads still hold the service"))
        .into_inner()
        .expect("service poisoned")
        .shutdown();

    let mut rep = Rep {
        throttles: snapshot.counter("core.tenant.sched.throttles"),
        ..Rep::default()
    };
    let bits = cfg.tensor_len as f64 * 32.0;
    for o in &outs {
        let in_rounds_s: f64 = o.round_ms.iter().sum::<f64>() * 1e-3;
        if in_rounds_s > 0.0 {
            rep.tensor_gbps += o.round_ms.len() as f64 * bits / in_rounds_s / 1e9;
        }
        rep.tenant_rates
            .push(o.round_ms.len() as f64 / budget.as_secs_f64());
        rep.attempted += o.round_ms.len() as u64;
        rep.failed += o.failed;
        rep.round_ms.extend_from_slice(&o.round_ms);
        rep.admit_us.extend_from_slice(&o.admit_us);
        rep.counts += o.counts;
    }
    // Tenants hold different inputs and finish different numbers of
    // batches, so the pooled mean would move with scheduling. The mean
    // over tenants of each one's own bytes per round follows from the
    // inputs alone.
    rep.wire_bytes_per_round = outs
        .iter()
        .map(|o| o.counts.worker_bytes as f64 / o.counts.rounds as f64)
        .sum::<f64>()
        / TENANTS as f64;
    rep.setup_s = outs
        .iter()
        .map(|o| o.first_measured)
        .max()
        .expect("at least one tenant")
        .duration_since(started)
        .as_secs_f64();
    rep
}

// ---------------------------------------------------------------------
// A simnet repetition
// ---------------------------------------------------------------------

/// splitmix64, for block occupancy without materialising 512 tensors.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Block occupancy shaped as `ablation_simnet_scale` draws it: a hot set
/// shared by all workers plus 2% per-worker jitter. The hot set holds an
/// exact share of the blocks, so the bytes a round moves barely depend
/// on the seed.
fn occupancy(workers: usize, blocks: usize, density: f64, seed: u64) -> Vec<Vec<bool>> {
    let hot = gen::worker_block_sets(1, blocks, 1.0 - density, OverlapMode::All, seed)
        .pop()
        .expect("one set");
    (0..workers)
        .map(|w| {
            (0..blocks)
                .map(|b| {
                    hot[b] || splitmix(seed ^ ((w as u64) << 32) ^ b as u64) % 1_000_000 < 20_000
                })
                .collect()
        })
        .collect()
}

fn simnet_rep(cfg: &OmniConfig, density: f64, seed: u64, budget: Duration) -> Rep {
    let started = Instant::now();
    let blocks = cfg.tensor_len.div_ceil(cfg.block_size);
    let bitmaps = bitmaps_from_sets(&occupancy(cfg.num_workers, blocks, density, mix(seed, 0)));
    let spec = SimSpec::dedicated(cfg.clone(), Bandwidth::gbps(10.0), SimTime::from_micros(5))
        .with_topology(RackTopology::new(SIM_RACK_SIZE, SimTime::from_micros(2)))
        .with_threads(1);
    // The first call is the reference: the simulation is deterministic,
    // so every later call must reproduce its counters exactly.
    let first = simulate_allreduce(&spec, &bitmaps);
    let mut rep = Rep {
        sim_events: first.report.events,
        wire_bytes_per_round: first.worker_tx_bytes as f64,
        ..Rep::default()
    };
    rep.failed += u64::from(!first.failed_workers.is_empty());
    rep.setup_s = started.elapsed().as_secs_f64();
    let measuring = Instant::now();
    while measuring.elapsed() < budget {
        let t0 = Instant::now();
        let out = simulate_allreduce(&spec, &bitmaps);
        let dt = t0.elapsed().as_secs_f64();
        rep.round_ms.push(dt * 1e3);
        rep.sim_wall_s += dt;
        rep.attempted += 1;
        let same = out.failed_workers.is_empty()
            && out.worker_tx_bytes == first.worker_tx_bytes
            && out.shard_rx_bytes == first.shard_rx_bytes
            && out.completion == first.completion
            && out.report.events == first.report.events;
        rep.failed += u64::from(!same);
    }
    rep.counts.rounds = rep.attempted;
    rep.tensor_gbps = rep.attempted as f64 * cfg.tensor_len as f64 * 32.0 / rep.sim_wall_s / 1e9;
    rep
}

// ---------------------------------------------------------------------

/// Runs one repetition of `workload`, measuring for `budget`.
///
/// The repetition runs under a deadline: a protocol stall fails the
/// repetition (`Err`) instead of hanging the benchmark. Its threads are
/// then still blocked, so the caller must not start another one.
pub fn repetition(
    workload: &Workload,
    seed: u64,
    budget: Duration,
    inst: &Instrument,
) -> Result<Rep, String> {
    let started = Instant::now();
    let inst = inst.clone();
    // Inputs are generated on the calling thread, repetition after
    // repetition from the same allocator arena, so the memory they take
    // is the same each time and `peak_rss_mb` does not depend on which
    // arena a fresh thread happens to get.
    let body: Box<dyn FnOnce() -> Result<Rep, String> + Send> = match workload.deployment.clone() {
        Deployment::Group {
            cfg,
            engine,
            mesh,
            sparsity,
        } => {
            let inputs = group_inputs(&cfg, sparsity, seed);
            Box::new(move || group_rep(&cfg, engine, mesh, inputs, budget, &inst, started))
        }
        Deployment::Tenants { cfg, sparsity } => {
            let inputs = tenant_inputs(&cfg, sparsity, seed);
            Box::new(move || Ok(tenants_rep(&cfg, inputs, budget, started)))
        }
        Deployment::Simnet { cfg, density } => {
            Box::new(move || Ok(simnet_rep(&cfg, density, seed, budget)))
        }
    };
    let deadline = budget + DEADLINE_SLACK;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        omnireduce_core::testing::with_deadline(deadline, body)
    }))
    .unwrap_or_else(|_| {
        Err(format!(
            "repetition panicked or overran its {deadline:?} deadline"
        ))
    })
}

//! Integration: the Algorithm 2 recovery engines over *real UDP
//! datagrams* — the deployment shape closest to the paper's DPDK path.
//!
//! Loopback UDP rarely drops on its own, so the matrix wraps the real
//! sockets in a `FaultPlan`'s keyed loss (the same replay-stable model
//! the in-process suites wrap channels in) and sweeps drop rates:
//! the full stack (codec → datagram → retransmission protocol) must
//! produce output **bit-identical** to the same collective over TCP —
//! inputs are quantized to multiples of 0.25, so any correct reduction
//! order yields the same bits, and "approximately recovered" is not
//! good enough. A blackhole case (aggregator address never bound — the
//! OS silently eats every datagram) locks the bounded-retry exit:
//! `PeerUnresponsive` instead of a wedged worker.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicU16, Ordering};
use std::time::Duration;

use omnireduce::core::config::OmniConfig;
use omnireduce::core::group::{self, Nodes, Recovery};
use omnireduce::core::recovery::RecoveryWorker;
use omnireduce::core::testing::{assert_bits_eq, quantize, with_deadline};
use omnireduce::core::ProtocolError;
use omnireduce::tensor::dense::reference_sum;
use omnireduce::tensor::gen::{self, OverlapMode};
use omnireduce::tensor::{BlockSpec, Tensor};
use omnireduce::transport::udp::UdpNetwork;
use omnireduce::transport::{ChaosNetwork, FaultPlan, KeyedLoss, NodeId, TcpNetwork, Transport};

/// Loopback port allocator: each test grabs a disjoint block.
static NEXT_PORT: AtomicU16 = AtomicU16::new(28_100);

fn alloc_addrs(n: usize) -> Vec<SocketAddr> {
    let base = NEXT_PORT.fetch_add(n as u16, Ordering::SeqCst);
    (0..n)
        .map(|i| SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), base + i as u16))
        .collect()
}

fn config(workers: usize, elements: usize, shards: usize) -> OmniConfig {
    OmniConfig::new(workers, elements)
        .with_block_size(128)
        .with_fusion(2)
        .with_streams(4)
        .with_aggregators(shards)
        .with_fixed_rto(Duration::from_millis(40))
}

/// Per-worker, per-round quantized inputs (`inputs[w][r]`).
fn quantized_inputs(workers: usize, elements: usize, rounds: usize, seed: u64) -> Vec<Vec<Tensor>> {
    let mut per_worker: Vec<Vec<Tensor>> = vec![Vec::new(); workers];
    for r in 0..rounds {
        let round = gen::workers(
            workers,
            elements,
            BlockSpec::new(128),
            0.6,
            1.0,
            OverlapMode::Random,
            seed + r as u64,
        );
        for (w, mut t) in round.into_iter().enumerate() {
            quantize(&mut t);
            per_worker[w].push(t);
        }
    }
    per_worker
}

/// Runs the recovery group with each node building its endpoint from
/// its own thread with `make_endpoint` (node id → transport), returning
/// every worker's per-round outputs.
fn run_recovery<T: Transport>(
    cfg: &OmniConfig,
    inputs: Vec<Vec<Tensor>>,
    make_endpoint: impl Fn(u16) -> T + Sync,
) -> Vec<Vec<Tensor>> {
    let nodes = Nodes::per_node(cfg, &make_endpoint);
    group::run::<Recovery>(cfg, nodes, inputs, None, None)
        .expect_ok()
        .outputs
}

/// One matrix point: UDP mesh at `loss` vs a TCP reference of the same
/// inputs, compared bit-for-bit.
fn udp_vs_tcp(workers: usize, shards: usize, loss: f64, seed: u64) {
    let elements = 1 << 13;
    let rounds = 2;
    let cfg = config(workers, elements, shards);
    let inputs = quantized_inputs(workers, elements, rounds, seed);

    // TCP reference: reliable byte streams, a huge RTO so any
    // retransmission would itself be a protocol bug.
    let tcp_addrs = alloc_addrs(cfg.mesh_size());
    let tcp_cfg = cfg.clone().with_fixed_rto(Duration::from_secs(30));
    let tcp_out = {
        let addrs = tcp_addrs;
        run_recovery(&tcp_cfg, inputs.clone(), move |node| {
            TcpNetwork::establish(NodeId(node), &addrs).expect("tcp establish")
        })
    };

    // UDP under seeded drops. Aggregators bind before workers start
    // sending only probabilistically; the protocol absorbs early losses
    // like any other drop.
    let udp_addrs = alloc_addrs(cfg.mesh_size());
    let plan = FaultPlan::new(seed).loss(KeyedLoss::uniform(loss, 0.0));
    let udp_out = {
        let addrs = udp_addrs;
        run_recovery(&cfg, inputs, move |node| {
            let udp = UdpNetwork::bind(NodeId(node), &addrs).expect("udp bind");
            ChaosNetwork::wrap(vec![udp], &plan, None).pop().unwrap()
        })
    };

    for (w, (u, t)) in udp_out.iter().zip(&tcp_out).enumerate() {
        for r in 0..rounds {
            assert_bits_eq(
                &u[r],
                &t[r],
                &format!("udp(loss={loss})≠tcp: worker {w} round {r}"),
            );
        }
    }
}

#[test]
fn udp_matrix_clean_loopback_matches_tcp() {
    with_deadline(Duration::from_secs(120), || udp_vs_tcp(3, 1, 0.0, 901));
}

#[test]
fn udp_matrix_moderate_drops_match_tcp() {
    with_deadline(Duration::from_secs(180), || udp_vs_tcp(3, 1, 0.05, 902));
}

#[test]
fn udp_matrix_heavy_drops_and_shards_match_tcp() {
    with_deadline(Duration::from_secs(240), || udp_vs_tcp(4, 2, 0.15, 903));
}

/// The original end-to-end smoke check: multiple rounds over bare UDP
/// sockets (no drop layer), verified against the dense reference sum.
#[test]
fn recovery_group_over_real_udp() {
    with_deadline(Duration::from_secs(120), || {
        let workers = 3;
        let elements = 1 << 14;
        let cfg = config(workers, elements, 1).with_fixed_rto(Duration::from_millis(50));
        let addrs = alloc_addrs(cfg.mesh_size());

        let rounds = 2;
        let mut per_worker: Vec<Vec<Tensor>> = vec![Vec::new(); workers];
        let mut expects = Vec::new();
        for r in 0..rounds {
            let inputs = gen::workers(
                workers,
                elements,
                BlockSpec::new(128),
                0.6,
                1.0,
                OverlapMode::Random,
                300 + r as u64,
            );
            expects.push(reference_sum(&inputs));
            for (w, t) in inputs.into_iter().enumerate() {
                per_worker[w].push(t);
            }
        }

        let outs = run_recovery(&cfg, per_worker, move |node| {
            UdpNetwork::bind(NodeId(node), &addrs).expect("udp bind")
        });
        for outs in outs {
            for (r, out) in outs.iter().enumerate() {
                assert!(
                    out.approx_eq(&expects[r], 1e-4),
                    "round {r} diverges by {}",
                    out.max_abs_diff(&expects[r])
                );
            }
        }
    });
}

/// Blackhole: the aggregator's address is allocated but never bound, so
/// the OS silently swallows every datagram — the real-socket version of
/// a crashed peer. The worker must exhaust its bounded retry budget and
/// surface `PeerUnresponsive`, not spin forever.
#[test]
fn unbound_peer_blackhole_fails_fast_with_peer_unresponsive() {
    with_deadline(Duration::from_secs(60), || {
        let cfg = OmniConfig::new(1, 1 << 10)
            .with_block_size(128)
            .with_fusion(2)
            .with_streams(2)
            .with_fixed_rto(Duration::from_millis(20))
            .with_max_retransmits(4);
        let addrs = alloc_addrs(cfg.mesh_size());
        // Bind only the worker; the aggregator slot stays a blackhole.
        let t = UdpNetwork::bind(NodeId(cfg.worker_node(0)), &addrs).expect("udp bind");
        let mut worker = RecoveryWorker::new(t, cfg);
        let mut tensor = Tensor::from_vec(vec![1.0f32; 1 << 10]);
        let err = worker
            .allreduce(&mut tensor)
            .expect_err("a blackholed mesh must not complete");
        assert!(
            matches!(err, ProtocolError::PeerUnresponsive { .. }),
            "want PeerUnresponsive, got {err:?}"
        );
    });
}

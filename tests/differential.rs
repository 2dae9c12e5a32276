//! Workspace-level differential suite: one scenario, five engines
//! (ISSUE 3 / DESIGN §9).
//!
//! The same seeded inputs flow through every implementation of the
//! OmniReduce protocol the workspace ships:
//!
//! * **lossless** executable engines (Algorithm 1),
//! * **recovery** executable engines (Algorithm 2) over clean and lossy
//!   meshes,
//! * **hierarchical** two-layer aggregation (§5) with the lossless
//!   engine inter-node,
//! * **sim** timing actors (payload-eliding mirror of Algorithm 1),
//! * **sim_recovery** timing actors (mirror of Algorithm 2).
//!
//! Executable engines are locked by *bit-identical* equality against a
//! scalar reference reduction (inputs quantized to multiples of 0.25 so
//! f32 sums are exact in any order). The payload-eliding simulators
//! can't produce tensors, so they are locked by exact wire-byte
//! equality against the executable engines' byte counters — both charge
//! `codec::encoded_len` sizes, so a divergence in protocol behaviour
//! (extra round trips, different fan-out, wrong entry sizes) shows up
//! as a byte mismatch.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use omnireduce::core::config::OmniConfig;
use omnireduce::core::group::Lossless;
use omnireduce::core::hierarchical::{hierarchical_allreduce, IntraNode};
use omnireduce::core::shard::ShardedAllReduce;
use omnireduce::core::sim::{simulate_allreduce, SimSpec};
use omnireduce::core::sim_recovery::simulate_recovery_allreduce;
use omnireduce::core::testing::{run_group, run_recovery_group, with_deadline};
use omnireduce::core::worker::OmniWorker;
use omnireduce::core::OmniAggregator;
use omnireduce::simnet::{Bandwidth, NicConfig, SimTime};
use omnireduce::tensor::gen::{self, OverlapMode};
use omnireduce::tensor::{BlockSpec, NonZeroBitmap, Tensor};
use omnireduce::transport::{ChannelNetwork, ChaosNetwork, FaultPlan, KeyedLoss, NodeId};

const WORKERS: usize = 3;
const ELEMENTS: usize = 1 << 13;
const BLOCK: usize = 64;
const SPARSITY: f64 = 0.6;
const SEED: u64 = 417;

fn config() -> OmniConfig {
    OmniConfig::new(WORKERS, ELEMENTS)
        .with_block_size(BLOCK)
        .with_fusion(2)
        .with_streams(4)
        .with_aggregators(2)
}

/// Quantizes every element to a multiple of 0.25 (magnitudes stay in
/// [0.5, 1.5], so the non-zero structure is preserved and every sum is
/// exact — bit-identical regardless of reduction order).
fn quantize(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v = (*v * 4.0).round() * 0.25;
    }
}

fn inputs() -> Vec<Tensor> {
    let mut ts = gen::workers(
        WORKERS,
        ELEMENTS,
        BlockSpec::new(BLOCK),
        SPARSITY,
        1.0,
        OverlapMode::Random,
        SEED,
    );
    for t in &mut ts {
        quantize(t);
    }
    ts
}

/// Scalar reference reduction: plain loops, no engine machinery, no
/// vectorized kernel.
fn oracle(ts: &[Tensor]) -> Tensor {
    let mut out = vec![0.0f32; ts[0].len()];
    for t in ts {
        for (o, v) in out.iter_mut().zip(t.as_slice()) {
            *o += *v;
        }
    }
    Tensor::from_vec(out)
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}: {g} vs {w}");
    }
}

fn worker_bitmaps(ts: &[Tensor]) -> Vec<NonZeroBitmap> {
    ts.iter()
        .map(|t| NonZeroBitmap::build(t, BlockSpec::new(BLOCK)))
        .collect()
}

#[test]
fn executable_engines_agree_bitwise_with_scalar_oracle() {
    with_deadline(Duration::from_secs(180), || {
        let ins = inputs();
        let want = oracle(&ins);

        // 1. Lossless executable engines (Algorithm 1).
        let lossless = run_group(&config(), ins.iter().map(|t| vec![t.clone()]).collect());
        for (w, outs) in lossless.outputs.iter().enumerate() {
            assert_bits_eq(&outs[0], &want, &format!("lossless w{w}"));
        }

        // 1b. Sharded lossless engines: per-shard lanes and threaded
        //     aggregators must not change a single bit.
        let rounds = ins.iter().map(|t| vec![t.clone()]).collect();
        let sharded = ShardedAllReduce::run::<Lossless>(&config(), None, rounds, None).expect_ok();
        for (w, outs) in sharded.outputs.iter().enumerate() {
            assert_bits_eq(&outs[0], &want, &format!("sharded lossless w{w}"));
        }

        // 2. Recovery executable engines (Algorithm 2) on a clean mesh:
        //    a huge fixed RTO means any timer fire is a protocol bug.
        let rec_cfg = config().with_fixed_rto(Duration::from_secs(30));
        let mut net = ChannelNetwork::new(rec_cfg.mesh_size());
        let endpoints = (0..rec_cfg.mesh_size())
            .map(|i| net.endpoint(NodeId(i as u16)))
            .collect();
        let recovery = run_recovery_group(
            &rec_cfg,
            endpoints,
            ins.iter().map(|t| vec![t.clone()]).collect(),
        );
        for (w, outs) in recovery.outputs.iter().enumerate() {
            assert_bits_eq(&outs[0], &want, &format!("recovery w{w}"));
        }
        for s in &recovery.stats {
            assert_eq!(s.retransmissions, 0, "clean mesh must not retransmit");
        }

        // 3. Recovery under drops + duplicates: retransmissions and
        //    replays must fold idempotently (two-phase versioned slots) —
        //    the result is still bit-identical, not merely close.
        let lossy_cfg = config().with_fixed_rto(Duration::from_millis(25));
        let plan = FaultPlan::new(SEED).loss(KeyedLoss::uniform(0.12, 0.06));
        let lossy = ChaosNetwork::wrap(
            ChannelNetwork::new(lossy_cfg.mesh_size()).endpoints(),
            &plan,
            None,
        );
        let lossy_result = run_recovery_group(
            &lossy_cfg,
            lossy,
            ins.iter().map(|t| vec![t.clone()]).collect(),
        );
        for (w, outs) in lossy_result.outputs.iter().enumerate() {
            assert_bits_eq(&outs[0], &want, &format!("lossy recovery w{w}"));
        }
    });
}

#[test]
fn hierarchical_engine_agrees_bitwise_with_scalar_oracle() {
    with_deadline(Duration::from_secs(120), || {
        // 2 local ranks ("GPUs") per server; WORKERS servers; leaders run
        // the lossless engine inter-node. The oracle is the scalar sum
        // over all ranks of all servers.
        let local = 2usize;
        let cfg = config();
        let rank_inputs: Vec<Vec<Tensor>> = (0..WORKERS)
            .map(|s| {
                let mut ts = gen::workers(
                    local,
                    ELEMENTS,
                    BlockSpec::new(BLOCK),
                    SPARSITY,
                    1.0,
                    OverlapMode::Random,
                    SEED + 7 + s as u64,
                );
                for t in &mut ts {
                    quantize(t);
                }
                ts
            })
            .collect();
        let all: Vec<Tensor> = rank_inputs.iter().flatten().cloned().collect();
        let want = oracle(&all);

        let mut net = ChannelNetwork::new(cfg.mesh_size());
        let mut agg_handles = Vec::new();
        for a in 0..cfg.num_aggregators {
            let t = net.endpoint(NodeId(cfg.aggregator_node(a)));
            let cfg = cfg.clone();
            agg_handles.push(thread::spawn(move || {
                OmniAggregator::new(t, cfg)
                    .run()
                    .expect("aggregator failed");
            }));
        }

        let mut rank_handles = Vec::new();
        for (s, server_inputs) in rank_inputs.into_iter().enumerate() {
            let node = IntraNode::new(local);
            let endpoint = Arc::new(Mutex::new(Some(net.endpoint(NodeId(cfg.worker_node(s))))));
            for (r, input) in server_inputs.into_iter().enumerate() {
                let node = node.clone();
                let cfg = cfg.clone();
                let endpoint = endpoint.clone();
                let want = want.clone();
                rank_handles.push(thread::spawn(move || {
                    let mut t = input;
                    hierarchical_allreduce(&node, r, &mut t, |sum| {
                        // Leader runs the inter-server OmniReduce.
                        let ep = endpoint.lock().unwrap().take().expect("leader only");
                        let mut worker = OmniWorker::new(ep, cfg.clone());
                        let res = worker.allreduce(sum);
                        worker.shutdown().expect("shutdown failed");
                        res
                    })
                    .expect("hierarchical allreduce failed");
                    assert_bits_eq(&t, &want, &format!("hierarchical s{s} r{r}"));
                }));
            }
        }
        for h in rank_handles {
            h.join().expect("rank thread panicked");
        }
        for h in agg_handles {
            h.join().expect("aggregator thread panicked");
        }
    });
}

/// Folds `shard_bytes[w][s]` rows into one per-shard column sum, after
/// asserting each row decomposes its worker's aggregate counter. The
/// config runs multiple aggregator shards, so every wire-byte equality
/// below must aggregate the per-shard counters first — a single
/// "one transport, one counter" sum would paper over a shard imbalance.
fn fold_shard_bytes(
    per_worker: &[Vec<u64>],
    totals: impl Iterator<Item = u64>,
    ctx: &str,
) -> Vec<u64> {
    let shards = per_worker[0].len();
    let mut per_shard = vec![0u64; shards];
    for ((w, row), total) in per_worker.iter().enumerate().zip(totals) {
        assert_eq!(row.len(), shards, "{ctx}: worker {w} shard column count");
        let split: u64 = row.iter().sum();
        assert_eq!(split, total, "{ctx}: worker {w} per-shard split");
        for (s, b) in row.iter().enumerate() {
            per_shard[s] += b;
        }
    }
    per_shard
}

#[test]
fn simulators_charge_exactly_the_executable_engines_bytes() {
    with_deadline(Duration::from_secs(120), || {
        let ins = inputs();
        let bms = worker_bitmaps(&ins);

        // Executable byte counters (lossless + clean-mesh recovery),
        // aggregated per aggregator shard.
        let lossless = run_group(&config(), ins.iter().map(|t| vec![t.clone()]).collect());
        let exec_shard_bytes = fold_shard_bytes(
            &lossless.shard_bytes,
            lossless.stats.iter().map(|s| s.bytes_sent),
            "lossless",
        );
        let exec_bytes: u64 = exec_shard_bytes.iter().sum();

        // The sharded deployment (per-shard lanes, threaded aggregators)
        // is protocol-identical: its per-shard byte split must match the
        // single-transport engines' split exactly, shard by shard.
        let rounds = ins.iter().map(|t| vec![t.clone()]).collect();
        let sharded = ShardedAllReduce::run::<Lossless>(&config(), None, rounds, None).expect_ok();
        let sharded_shard_bytes = fold_shard_bytes(
            &sharded.shard_bytes,
            sharded.stats.iter().map(|s| s.bytes_sent),
            "sharded lossless",
        );
        assert_eq!(
            sharded_shard_bytes, exec_shard_bytes,
            "sharded lanes must charge the same bytes per shard"
        );

        let rec_cfg = config().with_fixed_rto(Duration::from_secs(30));
        let mut net = ChannelNetwork::new(rec_cfg.mesh_size());
        let endpoints = (0..rec_cfg.mesh_size())
            .map(|i| net.endpoint(NodeId(i as u16)))
            .collect();
        let recovery = run_recovery_group(
            &rec_cfg,
            endpoints,
            ins.iter().map(|t| vec![t.clone()]).collect(),
        );
        let rec_shard_bytes = fold_shard_bytes(
            &recovery.shard_bytes,
            recovery.stats.iter().map(|s| s.bytes_sent),
            "recovery",
        );
        let rec_bytes: u64 = rec_shard_bytes.iter().sum();

        // Algorithm 1 mirror: exact wire-byte equality, in aggregate and
        // per dedicated shard NIC.
        let spec = SimSpec::dedicated(config(), Bandwidth::gbps(10.0), SimTime::from_micros(5));
        let sim = simulate_allreduce(&spec, &bms);
        assert_eq!(
            sim.worker_tx_bytes, exec_bytes,
            "sim worker bytes must equal executable lossless bytes"
        );
        assert_eq!(
            sim.shard_rx_bytes, exec_shard_bytes,
            "each sim shard NIC must receive exactly its executable shard's bytes"
        );

        // Algorithm 2 mirror at zero loss: exact wire-byte equality with
        // the executable recovery engines, again per shard.
        let nic = NicConfig::symmetric(Bandwidth::gbps(10.0), SimTime::from_micros(5));
        let simrec = simulate_recovery_allreduce(
            &config(),
            nic,
            nic,
            0.0,
            SimTime::from_millis(50),
            &bms,
            SEED,
        );
        assert!(simrec.failed_workers.is_empty(), "no worker may fail");
        assert_eq!(
            simrec.worker_tx_bytes, rec_bytes,
            "sim_recovery worker bytes must equal executable recovery bytes"
        );
        assert_eq!(
            simrec.shard_rx_bytes, rec_shard_bytes,
            "each sim_recovery shard NIC must receive exactly its shard's bytes"
        );
    });
}

//! Cross-engine differential conformance suite (ISSUE 3 / DESIGN §9).
//!
//! One seeded scenario generator — workers × sparsity × block size ×
//! fusion × deterministic flag × loss plan — runs every scenario through
//! the executable engines (lossless Algorithm 1, loss-recovery
//! Algorithm 2 over clean and lossy meshes) and asserts **bit-identical**
//! outputs against a scalar reference reduction.
//!
//! Bit-exactness across arrival orders is made meaningful by quantizing
//! every input to multiples of 0.25: f32 addition of such values (at
//! these magnitudes) is exact, so *any* reduction order must produce the
//! same bits — a reordering bug, a buffer-reuse bug, or a vectorization
//! bug all surface as a bit mismatch, not as "within tolerance".
//!
//! The binary also registers the counting allocator and locks in the
//! zero-allocation property of the pooled hot path (the
//! `aggregator.rs` clone-per-block regression).

use std::time::Duration;

use omnireduce_core::config::OmniConfig;
use omnireduce_core::group::{Lossless, Recovery};
use omnireduce_core::shard::ShardedAllReduce;
use omnireduce_core::testing::{
    assert_bits_eq, config_of, gen_inputs, run_group, run_recovery_group, scalar_oracle, scenarios,
    with_deadline, Scenario,
};
use omnireduce_core::ColAccumulator;
use omnireduce_telemetry::alloc::CountingAllocator;
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::codec::{decode_into, encode_into};
use omnireduce_transport::{
    BufferPool, ChannelNetwork, ChaosNetwork, Entry, FaultPlan, KeyedLoss, Message, NodeId, Packet,
    PacketKind,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn lossless_engine_matches_scalar_oracle_across_matrix() {
    with_deadline(Duration::from_secs(180), || {
        for s in scenarios() {
            if s.loss > 0.0 {
                continue; // lossy plans target the recovery engine
            }
            let cfg = config_of(&s);
            let inputs = gen_inputs(&s);
            let result = run_group(&cfg, inputs.clone());
            for r in 0..s.rounds {
                let oracle = scalar_oracle(&inputs, r);
                for (w, outs) in result.outputs.iter().enumerate() {
                    assert_bits_eq(&outs[r], &oracle, &format!("{s:?} lossless w{w} r{r}"));
                }
            }
        }
    });
}

#[test]
fn recovery_engine_matches_scalar_oracle_on_clean_mesh() {
    with_deadline(Duration::from_secs(180), || {
        for s in scenarios() {
            if s.loss > 0.0 {
                continue;
            }
            // Large fixed RTO: on a lossless mesh no timer should fire.
            let cfg = config_of(&s).with_fixed_rto(Duration::from_secs(30));
            let inputs = gen_inputs(&s);
            let mut net = ChannelNetwork::new(cfg.mesh_size());
            let endpoints = (0..cfg.mesh_size())
                .map(|i| net.endpoint(NodeId(i as u16)))
                .collect();
            let result = run_recovery_group(&cfg, endpoints, inputs.clone());
            for r in 0..s.rounds {
                let oracle = scalar_oracle(&inputs, r);
                for (w, outs) in result.outputs.iter().enumerate() {
                    assert_bits_eq(&outs[r], &oracle, &format!("{s:?} recovery w{w} r{r}"));
                }
                for st in &result.stats {
                    assert_eq!(st.retransmissions, 0, "{s:?}: clean mesh retransmitted");
                }
            }
        }
    });
}

#[test]
fn recovery_engine_matches_scalar_oracle_under_loss() {
    with_deadline(Duration::from_secs(300), || {
        for s in scenarios() {
            if s.loss == 0.0 {
                continue;
            }
            let cfg = config_of(&s).with_fixed_rto(Duration::from_millis(25));
            let inputs = gen_inputs(&s);
            // Drops and duplicates: retransmissions and replays must fold
            // idempotently (two-phase versioned slots).
            let plan = FaultPlan::new(s.seed).loss(KeyedLoss::uniform(s.loss, s.loss / 2.0));
            let endpoints = ChaosNetwork::wrap(
                ChannelNetwork::new(cfg.mesh_size()).endpoints(),
                &plan,
                None,
            );
            let result = run_recovery_group(&cfg, endpoints, inputs.clone());
            for r in 0..s.rounds {
                let oracle = scalar_oracle(&inputs, r);
                for (w, outs) in result.outputs.iter().enumerate() {
                    assert_bits_eq(
                        &outs[r],
                        &oracle,
                        &format!("{s:?} lossy recovery w{w} r{r}"),
                    );
                }
            }
        }
    });
}

/// The shard counts of the sharded conformance column. Every scenario
/// in the matrix runs at each of these, threaded over per-shard meshes.
const SHARD_COLUMN: [usize; 3] = [1, 2, 4];

/// `cfg` for scenario `s` re-based onto `shards` aggregators (stream
/// count per shard is preserved, so total streams scale with shards).
fn sharded_config_of(s: &Scenario, shards: usize) -> OmniConfig {
    let mut cfg = OmniConfig::new(s.workers, s.elements)
        .with_block_size(s.block_size)
        .with_fusion(s.fusion)
        .with_streams(s.streams)
        .with_aggregators(shards);
    if s.deterministic {
        cfg = cfg.with_deterministic();
    }
    cfg
}

#[test]
fn sharded_lossless_engine_matches_scalar_oracle_across_matrix() {
    with_deadline(Duration::from_secs(300), || {
        for s in scenarios() {
            if s.loss > 0.0 {
                continue;
            }
            let inputs = gen_inputs(&s);
            for shards in SHARD_COLUMN {
                let cfg = sharded_config_of(&s, shards);
                let result =
                    ShardedAllReduce::run::<Lossless>(&cfg, None, inputs.clone(), None).expect_ok();
                for r in 0..s.rounds {
                    let oracle = scalar_oracle(&inputs, r);
                    for (w, outs) in result.outputs.iter().enumerate() {
                        assert_bits_eq(
                            &outs[r],
                            &oracle,
                            &format!("{s:?} sharded×{shards} lossless w{w} r{r}"),
                        );
                    }
                }
                // Per-shard byte counters decompose the aggregate, and
                // every aggregator thread joined with its shard served.
                for (w, st) in result.stats.iter().enumerate() {
                    let split: u64 = result.shard_bytes[w].iter().sum();
                    assert_eq!(split, st.bytes_sent, "{s:?}×{shards} w{w} byte split");
                }
                assert_eq!(result.agg_stats.len(), shards, "{s:?} aggregator join");
            }
        }
    });
}

#[test]
fn sharded_recovery_engine_matches_scalar_oracle_on_clean_mesh() {
    with_deadline(Duration::from_secs(300), || {
        for s in scenarios() {
            if s.loss > 0.0 {
                continue;
            }
            let inputs = gen_inputs(&s);
            for shards in SHARD_COLUMN {
                // Large fixed RTO: any timer fire on the clean per-shard
                // meshes is a protocol bug in the bonded transport path.
                let cfg = sharded_config_of(&s, shards).with_fixed_rto(Duration::from_secs(30));
                let result =
                    ShardedAllReduce::run::<Recovery>(&cfg, None, inputs.clone(), None).expect_ok();
                for r in 0..s.rounds {
                    let oracle = scalar_oracle(&inputs, r);
                    for (w, outs) in result.outputs.iter().enumerate() {
                        assert_bits_eq(
                            &outs[r],
                            &oracle,
                            &format!("{s:?} sharded×{shards} recovery w{w} r{r}"),
                        );
                    }
                }
                for (w, st) in result.stats.iter().enumerate() {
                    assert_eq!(
                        st.retransmissions, 0,
                        "{s:?}×{shards} w{w}: clean sharded mesh retransmitted"
                    );
                    let split: u64 = result.shard_bytes[w].iter().sum();
                    assert_eq!(split, st.bytes_sent, "{s:?}×{shards} w{w} byte split");
                }
            }
        }
    });
}

#[test]
fn sharded_recovery_engine_matches_scalar_oracle_under_per_shard_loss() {
    with_deadline(Duration::from_secs(300), || {
        for s in scenarios() {
            if s.loss == 0.0 || s.rounds != 1 {
                continue;
            }
            let inputs = gen_inputs(&s);
            for shards in SHARD_COLUMN {
                let cfg = sharded_config_of(&s, shards).with_fixed_rto(Duration::from_millis(25));
                // Fault plans keyed by shard: each shard's mesh drops and
                // duplicates under its own seeded keyed-loss process.
                let plans: Vec<FaultPlan> = (0..shards)
                    .map(|sh| {
                        FaultPlan::new(s.seed + 31 * sh as u64)
                            .loss(KeyedLoss::uniform(s.loss, s.loss / 2.0))
                    })
                    .collect();
                let outcome =
                    ShardedAllReduce::run::<Recovery>(&cfg, Some(&plans), inputs.clone(), None);
                let oracle = scalar_oracle(&inputs, 0);
                for (w, wo) in outcome.workers.iter().enumerate() {
                    wo.result
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{s:?}×{shards} w{w} failed: {e}"));
                    assert_bits_eq(
                        &wo.outputs[0],
                        &oracle,
                        &format!("{s:?} sharded×{shards} lossy recovery w{w}"),
                    );
                    let split: u64 = wo.shard_bytes.iter().sum();
                    assert_eq!(split, wo.stats.bytes_sent, "{s:?}×{shards} w{w} byte split");
                }
            }
        }
    });
}

/// The determinism acceptance gate: with the deterministic flag set and
/// **non-quantized** inputs (order-sensitive float sums), a sharded
/// run's output must be bit-identical to the single-aggregator
/// reference, across ≥ 3 distinct seeded thread interleavings. Each
/// seed perturbs the schedule differently — per-shard straggler plans
/// delay different lanes by different amounts — so shard completions
/// and result arrivals interleave differently on every run; the bits
/// must not move.
#[test]
fn sharded_deterministic_output_is_bit_identical_to_single_aggregator_reference() {
    with_deadline(Duration::from_secs(180), || {
        let scenario = Scenario {
            workers: 3,
            deterministic: true,
            sparsity: 0.4,
            seed: 70,
            ..scenarios()[0]
        };
        let inputs: Vec<Vec<Tensor>> = gen::workers(
            scenario.workers,
            scenario.elements,
            BlockSpec::new(scenario.block_size),
            scenario.sparsity,
            1.0,
            OverlapMode::Random,
            scenario.seed,
        )
        .into_iter()
        .map(|t| vec![t])
        .collect();

        // Single-aggregator reference (the paper's baseline deployment).
        let reference = ShardedAllReduce::run::<Lossless>(
            &sharded_config_of(&scenario, 1),
            None,
            inputs.clone(),
            None,
        )
        .expect_ok();

        for shards in [2usize, 4] {
            let cfg = sharded_config_of(&scenario, shards);
            for interleave_seed in [1u64, 2, 3] {
                // Straggle each shard's worker→aggregator links by a
                // seed-dependent amount (µs-scale, different per shard
                // and per seed) to force distinct thread interleavings.
                let plans: Vec<FaultPlan> = (0..shards)
                    .map(|sh| {
                        let delay = 200 * ((interleave_seed + sh as u64 * 7) % 5 + 1);
                        let mut plan = FaultPlan::new(interleave_seed);
                        for w in 0..scenario.workers {
                            plan = plan.straggle_link(
                                w as u16,
                                cfg.aggregator_node(sh),
                                Duration::from_micros(delay),
                            );
                        }
                        plan
                    })
                    .collect();
                let run =
                    ShardedAllReduce::run::<Lossless>(&cfg, Some(&plans), inputs.clone(), None)
                        .expect_ok();
                for (w, outs) in run.outputs.iter().enumerate() {
                    assert_bits_eq(
                        &outs[0],
                        &reference.outputs[w][0],
                        &format!("shards={shards} seed={interleave_seed} w{w}"),
                    );
                }
            }
        }
    });
}

#[test]
fn deterministic_mode_is_bitwise_reproducible_across_runs() {
    // Non-quantized inputs (order-sensitive float sums): deterministic
    // mode must still give the same bits on every run, regardless of
    // thread scheduling.
    with_deadline(Duration::from_secs(120), || {
        let cfg = OmniConfig::new(3, 1 << 12)
            .with_block_size(64)
            .with_fusion(2)
            .with_streams(2)
            .with_aggregators(2)
            .with_deterministic();
        let inputs: Vec<Vec<Tensor>> = gen::workers(
            3,
            1 << 12,
            BlockSpec::new(64),
            0.4,
            1.0,
            OverlapMode::Random,
            77,
        )
        .into_iter()
        .map(|t| vec![t])
        .collect();
        let a = run_group(&cfg, inputs.clone());
        let b = run_group(&cfg, inputs);
        for (wa, wb) in a.outputs.iter().zip(&b.outputs) {
            assert_bits_eq(&wa[0], &wb[0], "deterministic reruns");
        }
    });
}

/// The allocation-regression lock for satellite 3 (`ColSlot::contribs`
/// clone-per-block) and the pooled codec path: after one warm-up block,
/// a full block cycle — pooled checkout, encode, decode into scratch,
/// accumulate for every worker, drain, result encode/decode, recycle —
/// performs **zero** heap allocations. Runs single-threaded under the
/// counting global allocator registered by this test binary.
#[test]
fn steady_state_block_cycle_allocates_nothing() {
    const WORKERS: usize = 4;
    const BLOCK: usize = 256;

    let payloads: Vec<Vec<f32>> = (0..WORKERS)
        .map(|w| (0..BLOCK).map(|i| (w * BLOCK + i) as f32 * 0.25).collect())
        .collect();
    let mut tensor = vec![0.0f32; BLOCK];

    // Both reduction modes must be allocation-free after warm-up.
    for deterministic in [false, true] {
        let mut pool = BufferPool::for_block_size(BLOCK);
        let mut acc = ColAccumulator::new(WORKERS, deterministic);
        let mut wire: Vec<u8> = Vec::new();
        let mut decoded = Message::Shutdown;

        let cycle = |pool: &mut BufferPool,
                     acc: &mut ColAccumulator,
                     wire: &mut Vec<u8>,
                     decoded: &mut Message,
                     tensor: &mut [f32]| {
            for (w, p) in payloads.iter().enumerate() {
                let mut entries = pool.checkout_entries();
                let mut data = pool.checkout_f32();
                data.extend_from_slice(p);
                entries.push(Entry::data(0, 0, data));
                let msg = Message::Block(Packet {
                    kind: PacketKind::Data,
                    ver: 0,
                    slot: 0,
                    stream: 0,
                    wid: w as u16,
                    epoch: 0,
                    entries,
                });
                encode_into(&msg, wire);
                pool.recycle_message(msg);
                decode_into(wire, decoded).expect("valid frame");
                let Message::Block(pkt) = &*decoded else {
                    unreachable!()
                };
                acc.store(w, &pkt.entries[0].data);
            }
            let mut out = pool.checkout_f32();
            acc.take_into(&mut out);
            tensor.copy_from_slice(&out);
            pool.checkin_f32(out);
        };

        // Warm-up: populates freelists, scratch capacities, accumulator
        // buffers.
        cycle(&mut pool, &mut acc, &mut wire, &mut decoded, &mut tensor);

        let before = CountingAllocator::thread_allocations();
        for _ in 0..100 {
            cycle(&mut pool, &mut acc, &mut wire, &mut decoded, &mut tensor);
        }
        let allocs = CountingAllocator::thread_allocations() - before;
        assert_eq!(
            allocs, 0,
            "steady-state block cycle (deterministic={deterministic}) allocated {allocs} times \
             over 100 rounds"
        );
        let expect: f32 = (0..WORKERS).map(|w| (w * BLOCK) as f32 * 0.25).sum();
        assert_eq!(tensor[0], expect);
        assert!(pool.hits() > 0, "pool must be serving from freelists");
    }
}

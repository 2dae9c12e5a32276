//! Sharded AllReduce: block-index round-robin over N aggregators (§4).
//!
//! OmniReduce scales aggregation bandwidth by sharding blocks across
//! parallel aggregators; each worker keeps one transport lane per shard,
//! bonded into the one transport its engine drives. This example deploys the
//! threaded harness — `OMNIREDUCE_NUM_AGGREGATORS` shards (default 2)
//! × 3 workers, each engine on its own OS thread — and checks every
//! worker's result against a dense reference sum. Run with:
//!
//! ```sh
//! OMNIREDUCE_NUM_AGGREGATORS=4 cargo run --release --example sharded
//! ```

use omnireduce::core::config::OmniConfig;
use omnireduce::core::group::Lossless;
use omnireduce::core::shard::ShardedAllReduce;
use omnireduce::tensor::gen::{self, OverlapMode};
use omnireduce::tensor::{dense::reference_sum, BlockSpec};

fn main() {
    let workers = 3;
    let elements = 1 << 14; // 64 KB of f32
    let shards = std::env::var("OMNIREDUCE_NUM_AGGREGATORS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&a| a >= 1)
        .unwrap_or(2);

    let cfg = OmniConfig::new(workers, elements)
        .with_block_size(64)
        .with_fusion(2)
        .with_streams(4) // per shard
        .with_aggregators(shards);

    // Synthetic sparse gradients (75% of blocks all-zero).
    let inputs = gen::workers(
        workers,
        elements,
        BlockSpec::new(64),
        0.75,
        1.0,
        OverlapMode::Random,
        7,
    );
    let expect = reference_sum(&inputs);

    // One round per worker; the harness spawns every engine on its own
    // thread over per-shard channel meshes and joins them.
    let rounds = inputs.into_iter().map(|t| vec![t]).collect();
    let out = ShardedAllReduce::run::<Lossless>(&cfg, None, rounds, None).expect_ok();

    for (w, result) in out.outputs.iter().enumerate() {
        assert!(
            result[0].approx_eq(&expect, 1e-4),
            "worker {w} result diverges"
        );
        let per_shard: Vec<String> = out.shard_bytes[w]
            .iter()
            .enumerate()
            .map(|(s, b)| format!("shard {s}: {} KB", b / 1000))
            .collect();
        println!(
            "worker {w}: correct sum; wire bytes {}",
            per_shard.join(", ")
        );
    }
    for (s, a) in out.agg_stats.iter().enumerate() {
        println!(
            "aggregator {s}: {} packets in, {} blocks reduced, {} results out",
            a.packets, a.blocks_received, a.results_sent
        );
    }
    println!("all {workers} workers agree across {shards} shard(s) ✓");
}

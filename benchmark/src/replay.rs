//! Replay lanes: the workload's own tensors and packet shapes pushed
//! single-threaded through each layer's public functions.
//!
//! A lane yields a unit cost (ns per block, per packet, per slot). The
//! budget multiplies unit costs by the exact counts of the traced run;
//! what the in-situ self time holds beyond that product is the gap.

use std::hint::black_box;
use std::time::{Duration, Instant};

use omnireduce_core::config::OmniConfig;
use omnireduce_core::{ColAccumulator, SlotScheduler, StreamLayout};
use omnireduce_simnet::{ActorId, Event, EventKey, EventKind, EventQueue, HeapQueue, SimTime};
use omnireduce_tensor::block::reduce_into;
use omnireduce_tensor::{NonZeroBitmap, Tensor, INFINITY_BLOCK};
use omnireduce_transport::codec::{decode_into, encode_into};
use omnireduce_transport::{BufferPool, Entry, Message, Packet, PacketKind};

use crate::stats::median;

/// Wall time a lane keeps repeating its pass for.
const LANE_TIME: Duration = Duration::from_millis(80);
/// Passes a lane makes at least, however slow one is.
const MIN_PASSES: usize = 5;

/// Median nanoseconds of one call of `pass`, repeated for [`LANE_TIME`].
/// The first call is discarded: it fills buffers the later ones reuse.
fn median_pass_ns(mut pass: impl FnMut()) -> f64 {
    pass();
    let mut ns = Vec::new();
    let started = Instant::now();
    while ns.len() < MIN_PASSES || started.elapsed() < LANE_TIME {
        let t0 = Instant::now();
        pass();
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    median(&mut ns)
}

/// Unit costs of the data-plane layers on one workload's inputs, and the
/// per-round counts of the work the lanes replayed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DataPlaneCosts {
    pub reduce_gbps: f64,
    /// `ColAccumulator`: one `store` per contributor plus `take_into`.
    pub store_take_ns_per_slot: f64,
    /// Block slots one round completes: blocks non-zero at any worker.
    pub slots_per_round: f64,
    pub bitmap_build_ns_per_block: f64,
    pub next_ns_per_lookup: f64,
    /// Look-ahead lookups one worker makes in one round.
    pub lookups_per_worker_round: f64,
    pub encode_ns_per_pkt: f64,
    pub decode_ns_per_pkt: f64,
    pub codec_gbps: f64,
    pub pool_ns_per_checkout: f64,
    pub pool_hit_ratio: f64,
}

fn layout_of(cfg: &OmniConfig) -> StreamLayout {
    StreamLayout::new(
        cfg.block_spec(),
        cfg.fusion,
        cfg.total_streams(),
        cfg.tensor_len,
    )
}

/// Runs the data-plane lanes on `round`: one template round, one tensor
/// per worker.
pub fn data_plane(cfg: &OmniConfig, round: &[&Tensor]) -> DataPlaneCosts {
    let spec = cfg.block_spec();
    let layout = layout_of(cfg);
    let nblocks = layout.nblocks();
    let bitmaps: Vec<NonZeroBitmap> = round
        .iter()
        .map(|t| NonZeroBitmap::build(t, spec))
        .collect();
    let mut costs = DataPlaneCosts::default();

    // tensor.block: every non-zero block of every worker folded into one
    // accumulator tensor, as the slots do block by block.
    let mut acc = Tensor::zeros(cfg.tensor_len);
    let reduced_bytes: usize = round
        .iter()
        .zip(&bitmaps)
        .map(|(_, bm)| {
            bm.iter_nonzero()
                .map(|b| 4 * layout.block_range(b).len())
                .sum::<usize>()
        })
        .sum();
    let ns = median_pass_ns(|| {
        for (t, bm) in round.iter().zip(&bitmaps) {
            for b in bm.iter_nonzero() {
                let range = layout.block_range(b);
                reduce_into(&mut acc.as_mut_slice()[range.clone()], &t.as_slice()[range]);
            }
        }
        black_box(&acc);
    });
    costs.reduce_gbps = reduced_bytes as f64 * 8.0 / ns;

    // core.slot: per block slot, one store per contributing worker and
    // the take that completes it.
    let union: Vec<u32> = (0..nblocks as u32)
        .filter(|&b| bitmaps.iter().any(|bm| bm.is_set(b)))
        .collect();
    let mut slot = ColAccumulator::new(round.len(), cfg.deterministic);
    let mut out = Vec::with_capacity(cfg.block_size);
    let ns = median_pass_ns(|| {
        for &b in &union {
            let range = layout.block_range(b);
            for (w, (t, bm)) in round.iter().zip(&bitmaps).enumerate() {
                if bm.is_set(b) {
                    slot.store(w, &t.as_slice()[range.clone()]);
                }
            }
            slot.take_into(&mut out);
            black_box(&out);
        }
    });
    costs.slots_per_round = union.len() as f64;
    costs.store_take_ns_per_slot = ns / union.len().max(1) as f64;

    // tensor.bitmap: the scan every worker makes at the top of a round.
    let ns = median_pass_ns(|| {
        for t in round {
            black_box(NonZeroBitmap::build(t, spec));
        }
    });
    costs.bitmap_build_ns_per_block = ns / (round.len() * nblocks) as f64;

    // tensor.fusion: the look-ahead chain down every column of every
    // stream, as the worker walks it while answering results.
    let mut lookups = 0u64;
    let ns = median_pass_ns(|| {
        lookups = 0;
        for bm in &bitmaps {
            for g in layout.active_streams() {
                for c in layout.valid_columns(g) {
                    let mut at = layout.first_block(g, c);
                    while let Some(b) = at {
                        lookups += 1;
                        let next = layout.next_block(bm, g, c, Some(b), cfg.skip_zero_blocks);
                        at = (next != INFINITY_BLOCK).then_some(next);
                    }
                }
            }
        }
        black_box(lookups);
    });
    costs.next_ns_per_lookup = ns / lookups.max(1) as f64;
    costs.lookups_per_worker_round = lookups as f64 / round.len() as f64;

    // transport.codec: the packets the first worker would send (`fusion`
    // blocks of data each) and the matching results.
    let packet = |kind: PacketKind, blocks: &[u32]| {
        Message::Block(Packet {
            kind,
            ver: 0,
            epoch: 0,
            slot: 0,
            stream: cfg.stream_id,
            wid: if kind == PacketKind::Data {
                0
            } else {
                u16::MAX
            },
            entries: blocks
                .iter()
                .map(|&b| {
                    Entry::data(
                        b,
                        b + 1,
                        round[0].as_slice()[layout.block_range(b)].to_vec(),
                    )
                })
                .collect(),
        })
    };
    let sent: Vec<u32> = bitmaps[0].iter_nonzero().take(64 * cfg.fusion).collect();
    let messages: Vec<Message> = sent
        .chunks(cfg.fusion)
        .flat_map(|blocks| {
            [
                packet(PacketKind::Data, blocks),
                packet(PacketKind::Result, blocks),
            ]
        })
        .collect();
    if !messages.is_empty() {
        let mut wire = Vec::new();
        let encode_ns = median_pass_ns(|| {
            for m in &messages {
                encode_into(m, &mut wire);
                black_box(&wire);
            }
        });
        let frames: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| {
                encode_into(m, &mut wire);
                wire.clone()
            })
            .collect();
        let mut decoded = Message::Shutdown;
        let decode_ns = median_pass_ns(|| {
            for f in &frames {
                decode_into(f, &mut decoded).expect("a frame this lane encoded");
                black_box(&decoded);
            }
        });
        let bytes: usize = frames.iter().map(Vec::len).sum();
        costs.encode_ns_per_pkt = encode_ns / messages.len() as f64;
        costs.decode_ns_per_pkt = decode_ns / messages.len() as f64;
        costs.codec_gbps = 2.0 * bytes as f64 * 8.0 / (encode_ns + decode_ns);
    }

    // transport.pool: the checkouts behind one packet (entry list plus
    // one payload per fused block) and the recycle after its send.
    const PACKETS: usize = 1024;
    let mut pool = BufferPool::for_block_size(cfg.block_size);
    let ns = median_pass_ns(|| {
        for _ in 0..PACKETS {
            let mut entries = pool.checkout_entries();
            for c in 0..cfg.fusion {
                entries.push(Entry::data(c as u32, 0, pool.checkout_f32()));
            }
            pool.recycle_message(black_box(Message::Block(Packet {
                kind: PacketKind::Data,
                ver: 0,
                epoch: 0,
                slot: 0,
                stream: 0,
                wid: 0,
                entries,
            })));
        }
    });
    costs.pool_ns_per_checkout = ns / (PACKETS * (1 + cfg.fusion)) as f64;
    let (hits, misses) = (pool.hits() as f64, pool.misses() as f64);
    costs.pool_hit_ratio = hits / (hits + misses).max(1.0);
    costs
}

/// `SlotScheduler::acquire` + `release` with nobody else waiting: ns per
/// grant, for `tenants` registered streams asking `slots` each.
pub fn sched_ns_per_grant(tenants: usize, slots: u64) -> f64 {
    const GRANTS: usize = 4096;
    let sched = SlotScheduler::new(1024);
    for s in 0..tenants {
        sched.register(s as u16 + 1, 1, None);
    }
    let ns = median_pass_ns(|| {
        for i in 0..GRANTS {
            let stream = (i % tenants) as u16 + 1;
            sched.acquire(stream, slots);
            sched.release(stream, slots, 4096);
        }
    });
    ns / GRANTS as f64
}

/// `HeapQueue` push and pop held at `depth` pending events (the classic
/// hold model: pop the earliest, push one a random step later): ns per
/// queue operation.
pub fn heap_ns_per_op(depth: usize) -> f64 {
    const HOLDS: usize = 1 << 16;
    let event = |ns: u64, seq: u64| Event::<u64> {
        key: EventKey {
            time: SimTime::from_nanos(ns),
            src: ActorId((seq % 1024) as usize),
            seq,
            rank: 0,
        },
        kind: EventKind::Timer {
            actor: ActorId(0),
            token: seq,
        },
    };
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut step = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % 100_000
    };
    let mut queue = HeapQueue::default();
    let mut seq = 0u64;
    for _ in 0..depth {
        queue.push(event(step(), seq));
        seq += 1;
    }
    let ns = median_pass_ns(|| {
        for _ in 0..HOLDS {
            let ev = queue.pop().expect("the queue is held at depth");
            queue.push(event(ev.key.time.as_nanos() + step(), seq));
            seq += 1;
        }
    });
    ns / (2 * HOLDS) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::group_inputs;

    #[test]
    fn lanes_count_the_work_of_the_inputs_they_replay() {
        let cfg = OmniConfig::new(3, 1 << 13)
            .with_block_size(64)
            .with_fusion(2)
            .with_streams(2);
        let inputs = group_inputs(&cfg, 0.5, 7);
        let round: Vec<&Tensor> = inputs.templates.iter().map(|w| &w[0]).collect();
        let c = data_plane(&cfg, &round);
        // 128 blocks, half of them non-zero at each of three workers.
        assert!(c.slots_per_round >= 64.0 && c.slots_per_round <= 128.0);
        // A worker looks ahead once per block it holds, plus the first
        // row of every column.
        assert!(c.lookups_per_worker_round >= 64.0 && c.lookups_per_worker_round <= 64.0 + 4.0);
        assert_eq!(c.pool_hit_ratio.round(), 1.0);
        for v in [
            c.reduce_gbps,
            c.store_take_ns_per_slot,
            c.bitmap_build_ns_per_block,
            c.next_ns_per_lookup,
            c.encode_ns_per_pkt,
            c.decode_ns_per_pkt,
            c.codec_gbps,
            c.pool_ns_per_checkout,
        ] {
            assert!(v.is_finite() && v > 0.0, "{c:?}");
        }
        assert!(sched_ns_per_grant(4, 16) > 0.0);
        assert!(heap_ns_per_op(1024) > 0.0);
    }
}

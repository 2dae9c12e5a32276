//! Elastic-membership integration tests: epoch fencing, explicit
//! join/rejoin, and wind-down symmetry.
//!
//! * **Epoch fencing.** An evicted worker's readmission bumps the
//!   membership epoch; packets stamped with a pre-admission epoch are
//!   rejected deterministically (`stale_epoch_dropped`), never
//!   aggregated into fresh phases.
//! * **Rejoin ladder.** Under [`DegradedMode::Rejoin`] a zombie data
//!   packet is answered with the current `Welcome`, so the evicted
//!   worker fails fast with [`ProtocolError::Evicted`], `join()`s, and
//!   contributes to subsequent rounds — bit-identical to everyone else.
//! * **Wind-down symmetry.** A dead lane must not keep goodbyes from
//!   reaching the surviving lanes; failures are counted in telemetry
//!   and surfaced, not swallowed.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use omnireduce_core::config::{DegradedMode, OmniConfig};
use omnireduce_core::error::ProtocolError;
use omnireduce_core::recovery::{RecoveryAggregator, RecoveryWorker};
use omnireduce_core::testing::with_deadline;
use omnireduce_core::OmniWorker;
use omnireduce_telemetry::Telemetry;
use omnireduce_tensor::dense::reference_sum;
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::BlockSpec;
use omnireduce_transport::channel::ChannelTransport;
use omnireduce_transport::{
    ChannelNetwork, Entry, Message, NodeId, Packet, PacketKind, ShardedMesh, Transport,
    TransportError,
};

fn data_packet(wid: u16, ver: u8, epoch: u8, vals: &[f32]) -> Message {
    Message::Block(Packet {
        kind: PacketKind::Data,
        ver,
        epoch,
        slot: 0,
        stream: 0,
        wid,
        entries: vec![Entry::data(0, 0, vals.to_vec())],
    })
}

/// Blocks until `pred` matches a received message (10 s cap).
fn recv_matching(t: &ChannelTransport, pred: impl Fn(&Message) -> bool) -> Message {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(!left.is_zero(), "timed out waiting for a matching message");
        if let Some((_, m)) = t.recv_timeout(left).expect("transport failed") {
            if pred(&m) {
                return m;
            }
        }
    }
}

fn result_fields(m: &Message) -> (u8, u8, Vec<f32>) {
    match m {
        Message::Block(p) => {
            assert_eq!(p.kind, PacketKind::Result);
            (p.ver, p.epoch, p.entries[0].data.clone())
        }
        other => panic!("expected a result, got {}", other.tag()),
    }
}

/// Drives the aggregator over raw endpoints through the full epoch
/// state machine: shared round at epoch 0 → eviction (epoch 1) with a
/// degraded completion → explicit `Join` admitted at the idle round
/// boundary (epoch 2) with correct phase cursors → a pre-admission
/// stale packet rejected by the epoch fence → a fresh full round.
#[test]
fn evict_rejoin_and_stale_epoch_fencing() {
    with_deadline(Duration::from_secs(60), || {
        let cfg = OmniConfig::new(2, 8)
            .with_block_size(8)
            .with_fusion(1)
            .with_streams(1)
            .with_eviction_timeout(Duration::from_millis(100))
            .with_degraded_mode(DegradedMode::DropWorker);
        let mut net = ChannelNetwork::new(cfg.mesh_size());
        let mut endpoints = net.endpoints();
        let agg_t = endpoints.remove(cfg.aggregator_node(0) as usize);
        let w1 = endpoints.remove(1);
        let w0 = endpoints.remove(0);
        let agg_node = NodeId(cfg.aggregator_node(0));

        let agg_cfg = cfg.clone();
        let agg = thread::spawn(move || {
            let mut agg = RecoveryAggregator::new(agg_t, agg_cfg);
            let res = agg.run();
            (res, agg.stats, agg)
        });

        // Round 1 (ver 0, epoch 0): both contribute.
        w0.send(agg_node, &data_packet(0, 0, 0, &[1.0; 8])).unwrap();
        w1.send(agg_node, &data_packet(1, 0, 0, &[2.0; 8])).unwrap();
        for t in [&w0, &w1] {
            let r = recv_matching(t, |m| matches!(m, Message::Block(_)));
            let (ver, epoch, data) = result_fields(&r);
            assert_eq!((ver, epoch), (0, 0));
            assert_eq!(data, vec![3.0; 8]);
        }

        // Round 2 (ver 1): worker 1 goes silent past the eviction
        // timeout. The round completes degraded at epoch 1.
        thread::sleep(Duration::from_millis(150));
        w0.send(agg_node, &data_packet(0, 1, 0, &[5.0; 8])).unwrap();
        let r = recv_matching(&w0, |m| matches!(m, Message::Block(_)));
        let (ver, epoch, data) = result_fields(&r);
        assert_eq!((ver, epoch), (1, 1), "eviction must bump the epoch");
        assert_eq!(data, vec![5.0; 8], "degraded round keeps w0's data only");

        // Worker 1 rejoins: admitted at the idle boundary, epoch 2,
        // with the stream's next-phase cursor (ver 1 completed → 0).
        w1.send(agg_node, &Message::Join { wid: 1 }).unwrap();
        let welcome = recv_matching(&w1, |m| matches!(m, Message::Welcome { .. }));
        match welcome {
            Message::Welcome { epoch, vers } => {
                assert_eq!(epoch, 2, "admission must bump the epoch again");
                assert_eq!(vers, vec![0], "cursor must point at the next phase");
            }
            _ => unreachable!(),
        }

        // A straggler stamped with worker 1's pre-admission epoch is
        // fenced off; the fresh contributions complete normally.
        w1.send(agg_node, &data_packet(1, 0, 0, &[9.0; 8])).unwrap();
        w0.send(agg_node, &data_packet(0, 0, 1, &[7.0; 8])).unwrap();
        w1.send(agg_node, &data_packet(1, 0, 2, &[9.0; 8])).unwrap();
        for t in [&w0, &w1] {
            let r = recv_matching(t, |m| matches!(m, Message::Block(_)));
            let (ver, epoch, data) = result_fields(&r);
            assert_eq!((ver, epoch), (0, 2));
            assert_eq!(data, vec![16.0; 8], "stale packet must not be aggregated");
        }

        w0.send(agg_node, &Message::Shutdown).unwrap();
        w1.send(agg_node, &Message::Shutdown).unwrap();
        let (res, stats, _agg) = agg.join().expect("aggregator panicked");
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.joins_admitted, 1);
        assert_eq!(stats.stale_epoch_dropped, 1);
        assert_eq!(stats.degraded_completions, 1);
    });
}

/// Acceptance: a `DropWorker`-evicted worker under `Rejoin` mode fails
/// fast with `Evicted`, `join()`s at a later epoch, and contributes to
/// the subsequent round — whose result is bit-identical across workers
/// and equal to the reference sum.
#[test]
fn evicted_worker_rejoins_and_contributes_to_next_round() {
    with_deadline(Duration::from_secs(60), || {
        let n = 2;
        let len = 256;
        let cfg = OmniConfig::new(n, len)
            .with_block_size(8)
            .with_fusion(2)
            .with_streams(2)
            .with_deterministic()
            .with_degraded_mode(DegradedMode::Rejoin)
            .with_eviction_timeout(Duration::from_millis(100))
            .with_initial_rto(Duration::from_millis(25))
            .with_rto_bounds(Duration::from_millis(25), Duration::from_millis(200))
            .with_max_retransmits(40);
        let mk = |seed| {
            gen::workers(
                n,
                len,
                BlockSpec::new(8),
                0.5,
                1.0,
                OverlapMode::Random,
                seed,
            )
        };
        let round1 = mk(11);
        let round2 = mk(13);
        let expected2 = reference_sum(&round2);

        let mut net = ChannelNetwork::new(cfg.mesh_size());
        let mut endpoints: Vec<Option<_>> = net.endpoints().into_iter().map(Some).collect();
        let (joined_tx, joined_rx) = mpsc::channel::<()>();

        let agg_t = endpoints[cfg.aggregator_node(0) as usize].take().unwrap();
        let agg_cfg = cfg.clone();
        let agg = thread::spawn(move || {
            let mut agg = RecoveryAggregator::new(agg_t, agg_cfg);
            let res = agg.run();
            (res, agg.stats, agg)
        });

        // Worker 0: degraded round 1 alone, then round 2 with the
        // readmitted worker 1.
        let t0 = endpoints[cfg.worker_node(0) as usize].take().unwrap();
        let cfg0 = cfg.clone();
        let mut a1 = round1[0].clone();
        let mut a2 = round2[0].clone();
        let w0 = thread::spawn(move || {
            let mut w = RecoveryWorker::new(t0, cfg0);
            w.allreduce(&mut a1).expect("degraded round 1 failed");
            joined_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("worker 1 never rejoined");
            w.allreduce(&mut a2).expect("round 2 failed");
            w.shutdown().expect("goodbye failed");
            (a1, a2)
        });

        // Worker 1: sleeps through round 1, gets evicted, is told so by
        // the zombie answer, rejoins, and contributes to round 2.
        let t1 = endpoints[cfg.worker_node(1) as usize].take().unwrap();
        let cfg1 = cfg.clone();
        let mut b1 = round1[1].clone();
        let mut b2 = round2[1].clone();
        let w1 = thread::spawn(move || {
            thread::sleep(Duration::from_millis(700));
            let mut w = RecoveryWorker::new(t1, cfg1);
            let err = w.allreduce(&mut b1).expect_err("zombie round must fail");
            match err {
                ProtocolError::Evicted { worker, epoch } => {
                    assert_eq!(worker, 1);
                    assert!(epoch >= 1, "eviction must have bumped the epoch");
                }
                other => panic!("expected Evicted, got {other:?}"),
            }
            w.join().expect("rejoin failed");
            joined_tx.send(()).unwrap();
            w.allreduce(&mut b2).expect("post-rejoin round failed");
            w.shutdown().expect("goodbye failed");
            b2
        });

        let (a1_out, a2_out) = w0.join().expect("worker 0 panicked");
        let b2_out = w1.join().expect("worker 1 panicked");
        // Degraded round 1 = worker 0's own contribution, unchanged.
        assert_eq!(a1_out.max_abs_diff(&round1[0]), 0.0);
        // Round 2 includes the rejoined worker: bit-identical across
        // workers and equal to the two-worker reference sum.
        assert_eq!(a2_out.max_abs_diff(&b2_out), 0.0);
        assert_eq!(a2_out.max_abs_diff(&expected2), 0.0);

        let (res, stats, _agg) = agg.join().expect("aggregator panicked");
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.joins_admitted, 1);
        assert!(stats.evicted_packets_dropped >= 1);
        assert!(stats.degraded_completions >= 1);
    });
}

fn two_shard_cfg() -> OmniConfig {
    OmniConfig::new(1, 32)
        .with_block_size(8)
        .with_fusion(1)
        .with_streams(2)
        .with_aggregators(2)
}

/// Shard 0's endpoint is already gone: the worker's goodbye must still
/// reach shard 1, the failure must be counted, and the first error
/// surfaced after every shard was tried.
fn assert_goodbye_reaches_survivor<T: Transport>(worker_t: T, agg1: &ChannelTransport) {
    let telemetry = Telemetry::new();
    let worker = OmniWorker::with_telemetry(worker_t, two_shard_cfg(), &telemetry);
    let err = worker.shutdown().expect_err("dead shard must surface");
    assert!(matches!(err, TransportError::Disconnected), "{err:?}");

    let (_, msg) = agg1
        .recv_timeout(Duration::from_secs(1))
        .unwrap()
        .expect("surviving shard never got the goodbye");
    assert!(matches!(msg, Message::Shutdown));
    assert_eq!(
        telemetry.snapshot().counter("core.shard.shutdown_errors"),
        1
    );
}

/// Regression (wind-down symmetry), one lane per shard: a dead lane must
/// not keep the goodbye from reaching the surviving lanes.
#[test]
fn sharded_shutdown_reaches_surviving_lanes_and_counts_failures() {
    with_deadline(Duration::from_secs(30), || {
        let mut mesh = ShardedMesh::channels(1, 2, false);
        let bond = mesh.worker_bond(0);
        drop(mesh.aggregator_endpoint(0)); // shard 0 is dead
        let agg1 = mesh.aggregator_endpoint(1);
        assert_goodbye_reaches_survivor(bond, &agg1);
    });
}

/// The same on one plain mesh with two aggregators: the goodbye loop
/// used to return at the first dead shard, leaving shard 1's `run()`
/// blocked forever.
#[test]
fn shutdown_reaches_surviving_shard_on_a_plain_mesh() {
    with_deadline(Duration::from_secs(30), || {
        let cfg = two_shard_cfg();
        let mut net = ChannelNetwork::new(cfg.mesh_size());
        let worker_t = net.endpoint(NodeId(cfg.worker_node(0)));
        drop(net.endpoint(NodeId(cfg.aggregator_node(0)))); // shard 0 is dead
        let agg1 = net.endpoint(NodeId(cfg.aggregator_node(1)));
        assert_goodbye_reaches_survivor(worker_t, &agg1);
    });
}

/// Regression: the recovery worker's wind-down tries the standby even
/// when it is gone, counts the failure, and still reaches the primary.
#[test]
fn recovery_shutdown_attempts_all_targets_and_surfaces_errors() {
    with_deadline(Duration::from_secs(60), || {
        let cfg = OmniConfig::new(1, 64)
            .with_block_size(8)
            .with_fusion(2)
            .with_streams(2)
            .with_hot_standby();
        let mut net = ChannelNetwork::new(cfg.mesh_size());
        let mut endpoints: Vec<Option<_>> = net.endpoints().into_iter().map(Some).collect();
        // The standby is gone before the run even starts; checkpoint
        // replication is best-effort, so the primary must not care.
        drop(endpoints[cfg.standby_node(0) as usize].take());

        let agg_t = endpoints[cfg.aggregator_node(0) as usize].take().unwrap();
        let agg_cfg = cfg.clone();
        let agg = thread::spawn(move || {
            let mut agg = RecoveryAggregator::new(agg_t, agg_cfg);
            let res = agg.run();
            (res, agg)
        });

        let telemetry = Telemetry::new();
        let t0 = endpoints[cfg.worker_node(0) as usize].take().unwrap();
        let mut tensor =
            gen::workers(1, 64, BlockSpec::new(8), 0.5, 1.0, OverlapMode::Random, 17).remove(0);
        let mut w = RecoveryWorker::with_telemetry(t0, cfg, &telemetry);
        w.allreduce(&mut tensor).expect("round failed");
        let err = w.shutdown().expect_err("dead standby must surface");
        assert!(matches!(err, TransportError::Disconnected), "{err:?}");
        assert_eq!(
            telemetry
                .snapshot()
                .counter("core.recovery.shutdown_errors"),
            1
        );

        // The goodbye still reached the primary: its run loop exits Ok.
        let (res, _agg) = agg.join().expect("aggregator panicked");
        assert!(res.is_ok(), "{res:?}");
    });
}

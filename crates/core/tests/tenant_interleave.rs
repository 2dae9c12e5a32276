//! Tenant-isolation battery: concurrent jobs multiplexed over one
//! shared aggregator fleet must behave — bit for bit — as if each ran
//! alone.
//!
//! * **Clean multiplexing.** Eight lossless tenants over a shared
//!   2-shard fleet, run concurrently under slot contention: every
//!   tenant's outputs, worker stats, aggregator stats and telemetry
//!   counters equal its solo run on a fresh service.
//! * **Chaos isolation.** Tenants with per-tenant seeded fault plans
//!   (drops, dups, bursts, stragglers) recover to the exact solo
//!   results, and the solo run replays the multiplexed telemetry
//!   counter-for-counter — a tenant's fates are a function of its own
//!   seed, never of its neighbours.
//! * **Abort containment.** A tenant whose aggregator crashes
//!   mid-stream aborts alone: its goodbyes still wind down its own
//!   surviving engines (the regression companion to the
//!   `shutdown_errors` coverage in `membership.rs`), while a concurrent
//!   tenant finishes bit-identical to solo.
//! * **Quota backpressure.** An over-quota tenant is throttled in
//!   virtual time — grants slow down, payloads stay exact.
//! * **Engine equivalence.** A solo service tenant produces the same
//!   outputs, bytes and stats as the plain [`ShardedAllReduce`] harness
//!   with the same stream id — the service adds routing, not bytes.

use std::time::Duration;

use omnireduce_core::config::OmniConfig;
use omnireduce_core::error::ProtocolError;
use omnireduce_core::group::{GroupOutcome, GroupResult, Lossless, Recovery, WorkerRun};
use omnireduce_core::shard::ShardedAllReduce;
use omnireduce_core::tenant::{JobRegistry, TenantRun, TenantService, TenantSpec};
use omnireduce_core::testing::with_deadline;
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::fault::{FaultPlan, KeyedLoss};
use omnireduce_transport::GilbertElliott;
use proptest::prelude::*;

/// Counters compared solo-vs-multiplexed for lossless tenants (the
/// lossless engine is fully deterministic, so these must be exact for
/// any worker count).
const LOSSLESS_COUNTERS: &[&str] = &[
    "core.aggregator.packets",
    "core.aggregator.blocks_received",
    "core.aggregator.slots_completed",
    "core.aggregator.rounds_completed",
    "core.aggregator.results_sent",
    "core.worker.packets_sent",
    "core.worker.bytes_sent",
    "core.worker.blocks_sent",
    "core.worker.results_received",
    "core.worker.rounds_completed",
];

/// Counters compared solo-vs-multiplexed for single-worker recovery
/// tenants under chaos (the same guard list the sharded replay suite
/// uses in `shard_interleave.rs`).
const REPLAYED_COUNTERS: &[&str] = &[
    "core.recovery.packets_sent",
    "core.recovery.retransmissions",
    "core.recovery.bytes_sent",
    "core.recovery.blocks_sent",
    "core.recovery.timer_fires",
    "core.recovery.stale_results_ignored",
    "core.recovery.backoffs",
    "core.recovery.agg.results_sent",
    "core.recovery.agg.result_retransmissions",
    "core.recovery.agg.duplicates_ignored",
    "transport.fault.keyed_drops",
    "transport.fault.keyed_dups",
];

const SHARDS: usize = 2;

fn tenant_cfg(workers: usize, len: usize) -> OmniConfig {
    OmniConfig::new(workers, len)
        .with_block_size(8)
        .with_fusion(2)
        .with_streams(2)
        .with_aggregators(SHARDS)
}

/// Chaos-grade config: deterministic reduction + an RTO floor far above
/// channel latency, so retransmissions are driven by the keyed fates
/// and not by scheduling noise (the `shard_interleave.rs` idiom).
fn chaos_cfg(workers: usize, len: usize) -> OmniConfig {
    tenant_cfg(workers, len)
        .with_deterministic()
        .with_initial_rto(Duration::from_millis(25))
        .with_rto_bounds(Duration::from_millis(25), Duration::from_millis(400))
        .with_max_retransmits(40)
}

fn gen_inputs(n: usize, len: usize, seed: u64) -> Vec<Tensor> {
    gen::workers(
        n,
        len,
        BlockSpec::new(8),
        0.5,
        1.0,
        OverlapMode::Random,
        seed,
    )
}

/// Per-worker round inputs: `rounds` tensors per worker, seeded per
/// round so every round differs.
fn round_inputs(workers: usize, len: usize, rounds: usize, seed: u64) -> Vec<Vec<Tensor>> {
    let mut per_worker: Vec<Vec<Tensor>> = (0..workers).map(|_| Vec::new()).collect();
    for r in 0..rounds {
        let round = gen_inputs(workers, len, seed.wrapping_add(1 + r as u64));
        for (w, t) in round.into_iter().enumerate() {
            per_worker[w].push(t);
        }
    }
    per_worker
}

fn registry(cap: usize) -> JobRegistry {
    JobRegistry::with_limits(cap, vec![])
}

/// Runs one lossless spec alone on a fresh fleet — the isolation
/// baseline every multiplexed tenant is compared against.
fn solo_lossless(
    spec: TenantSpec,
    inputs: Vec<Vec<Tensor>>,
    slots: u64,
) -> TenantRun<GroupResult<Lossless>> {
    let mut svc = TenantService::with_registry(SHARDS, slots, registry(1));
    let handle = svc.admit(spec).expect("solo admission");
    let res = handle.run_lossless(inputs);
    svc.shutdown();
    res
}

/// Runs one recovery spec alone on a fresh fleet.
fn solo_recovery(
    spec: TenantSpec,
    inputs: Vec<Vec<Tensor>>,
    slots: u64,
) -> TenantRun<GroupOutcome<Recovery>> {
    let mut svc = TenantService::with_registry(SHARDS, slots, registry(1));
    let handle = svc.admit(spec).expect("solo admission");
    let res = handle.run_recovery(inputs);
    svc.shutdown();
    res
}

fn assert_outputs_equal(label: &str, got: &[Vec<Tensor>], want: &[Vec<Tensor>]) {
    assert_eq!(got.len(), want.len(), "{label}: worker count");
    for (w, (g, e)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), e.len(), "{label}: round count on worker {w}");
        for (r, (gt, et)) in g.iter().zip(e).enumerate() {
            let diff = gt.max_abs_diff(et);
            assert_eq!(diff, 0.0, "{label}: worker {w} round {r} differs by {diff}");
        }
    }
}

// ---------------------------------------------------------------------
// Clean multiplexing: 8 tenants, bit-identical to solo
// ---------------------------------------------------------------------

/// Eight lossless tenants share the 2-shard fleet concurrently, with a
/// slot pool sized to keep at most two tenants in flight (real
/// contention, real queueing). Every tenant's outputs, per-worker
/// stats, per-shard aggregator stats and telemetry counters must equal
/// a solo run of the same spec on a fresh fleet.
#[test]
fn eight_tenants_are_bit_identical_to_their_solo_runs() {
    with_deadline(Duration::from_secs(120), || {
        const TENANTS: usize = 8;
        const WORKERS: usize = 2;
        const LEN: usize = 256;
        const ROUNDS: usize = 3;

        let inputs: Vec<Vec<Vec<Tensor>>> = (0..TENANTS)
            .map(|t| round_inputs(WORKERS, LEN, ROUNDS, 0x1000 + 7 * t as u64))
            .collect();

        // Solo baselines on private fleets (generous pool: no queueing).
        let solos: Vec<TenantRun<GroupResult<Lossless>>> = (0..TENANTS)
            .map(|t| {
                solo_lossless(
                    TenantSpec::lossless(tenant_cfg(WORKERS, LEN)),
                    inputs[t].clone(),
                    64,
                )
            })
            .collect();

        // Probe the per-round slot need with a throwaway admission, so
        // the contended pool below can be sized to exactly two tenants
        // in flight at once (real contention, real queueing).
        let probe_slots = {
            let mut probe = TenantService::with_registry(SHARDS, 64, registry(1));
            let h = probe
                .admit(TenantSpec::lossless(tenant_cfg(WORKERS, LEN)))
                .unwrap();
            let slots = h.slots_per_round();
            h.run_lossless(round_inputs(WORKERS, LEN, 1, 99));
            probe.shutdown();
            slots
        };
        let mut svc = TenantService::with_registry(SHARDS, probe_slots * 2, registry(TENANTS));

        let handles: Vec<_> = (0..TENANTS)
            .map(|_| {
                svc.admit(TenantSpec::lossless(tenant_cfg(WORKERS, LEN)))
                    .expect("admission under cap")
            })
            .collect();
        assert_eq!(svc.live_tenants(), TENANTS);

        let results: Vec<TenantRun<GroupResult<Lossless>>> = std::thread::scope(|scope| {
            let joins: Vec<_> = handles
                .into_iter()
                .zip(inputs.iter())
                .map(|(h, ins)| {
                    let ins = ins.clone();
                    scope.spawn(move || h.run_lossless(ins))
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("tenant run panicked"))
                .collect()
        });

        for (t, (multi, solo)) in results.iter().zip(&solos).enumerate() {
            let label = format!("tenant {t}");
            assert_outputs_equal(&label, &multi.outputs, &solo.outputs);
            assert_eq!(multi.stats, solo.stats, "{label}: worker stats");
            assert_eq!(multi.agg_stats, solo.agg_stats, "{label}: aggregator stats");
            for name in LOSSLESS_COUNTERS {
                assert_eq!(
                    multi.telemetry.counter(name),
                    solo.telemetry.counter(name),
                    "{label}: counter {name}"
                );
            }
        }

        assert_eq!(svc.live_tenants(), 0);
        let snap = svc.shutdown();
        assert_eq!(snap.counter("core.tenant.admitted"), TENANTS as u64);
        assert_eq!(snap.counter("core.tenant.completed"), TENANTS as u64);
        assert_eq!(snap.counter("core.tenant.demux.misrouted"), 0);
        assert_eq!(snap.counter("core.tenant.demux.unknown_sender"), 0);
        assert_eq!(
            snap.counter("core.tenant.sched.grants"),
            (TENANTS * ROUNDS) as u64,
            "exactly one grant per tenant round"
        );
    });
}

// ---------------------------------------------------------------------
// Chaos isolation: per-tenant seeded faults, exact solo replay
// ---------------------------------------------------------------------

fn tenant_plan(seed: u64, t: usize, drop: f64, dup: f64, bursty: bool) -> FaultPlan {
    let mut loss = KeyedLoss::uniform(drop, dup);
    if bursty {
        let avg = drop.clamp(0.01, 0.18);
        loss = loss.with_burst(GilbertElliott::from_average(avg, 0.6, 0.3));
    }
    FaultPlan::new(seed ^ (0xBEEF + 977 * t as u64)).loss(loss)
}

fn assert_chaos_worker_eq(label: &str, got: &WorkerRun<Recovery>, want: &WorkerRun<Recovery>) {
    assert!(
        got.result.is_ok(),
        "{label}: multiplexed run failed: {:?}",
        got.result
    );
    assert!(
        want.result.is_ok(),
        "{label}: solo run failed: {:?}",
        want.result
    );
    assert_eq!(got.stats, want.stats, "{label}: RecoveryStats");
    assert_eq!(got.outputs.len(), want.outputs.len(), "{label}: rounds");
    for (r, (g, e)) in got.outputs.iter().zip(&want.outputs).enumerate() {
        let diff = g.max_abs_diff(e);
        assert_eq!(diff, 0.0, "{label}: round {r} differs by {diff}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// N single-worker recovery tenants, each with its own seeded chaos
    /// plan (drops, dups, optional burstiness, one optional straggling
    /// shard), run concurrently over the shared fleet. Each tenant's
    /// outputs, stats, per-shard aggregator stats and the full replay
    /// counter list must equal its solo run with the same seed — its
    /// fates depend on its plan, never on its neighbours.
    #[test]
    fn prop_chaos_tenants_match_their_solo_runs_exactly(
        tenants in 2usize..4,
        len in 64usize..192,
        drop in 0.0f64..0.15,
        dup in 0.0f64..0.06,
        bursty in any::<bool>(),
        straggler in any::<bool>(),
        seed in 0u64..1000,
    ) {
        with_deadline(Duration::from_secs(120), move || {
            const ROUNDS: usize = 2;
            let cfg = chaos_cfg(1, len);

            let specs = |t: usize| {
                let mut plan = tenant_plan(seed, t, drop, dup, bursty);
                if straggler && t == 0 {
                    plan = plan.straggle(
                        cfg.aggregator_node(1),
                        Duration::from_millis(1),
                    );
                }
                TenantSpec::recovery(cfg.clone()).with_plan(plan)
            };
            let inputs: Vec<Vec<Vec<Tensor>>> = (0..tenants)
                .map(|t| round_inputs(1, len, ROUNDS, seed ^ (0x5000 + 31 * t as u64)))
                .collect();

            let solos: Vec<TenantRun<GroupOutcome<Recovery>>> = (0..tenants)
                .map(|t| solo_recovery(specs(t), inputs[t].clone(), 64))
                .collect();

            let mut svc = TenantService::with_registry(SHARDS, 64, registry(tenants));
            let handles: Vec<_> = (0..tenants)
                .map(|t| svc.admit(specs(t)).expect("admission"))
                .collect();
            let results: Vec<TenantRun<GroupOutcome<Recovery>>> = std::thread::scope(|scope| {
                let joins: Vec<_> = handles
                    .into_iter()
                    .zip(inputs.iter())
                    .map(|(h, ins)| {
                        let ins = ins.clone();
                        scope.spawn(move || h.run_recovery(ins))
                    })
                    .collect();
                joins
                    .into_iter()
                    .map(|j| j.join().expect("tenant run panicked"))
                    .collect()
            });

            for (t, (multi, solo)) in results.iter().zip(&solos).enumerate() {
                let label = format!("tenant {t}");
                assert_chaos_worker_eq(&label, &multi.workers[0], &solo.workers[0]);
                for (s, ((mr, ms), (sr, ss))) in
                    multi.aggs.iter().zip(&solo.aggs).enumerate()
                {
                    assert!(mr.is_ok(), "{label} shard {s}: {mr:?}");
                    assert!(sr.is_ok(), "{label} shard {s} solo: {sr:?}");
                    assert_eq!(ms, ss, "{label}: shard {s} aggregator stats");
                }
                for name in REPLAYED_COUNTERS {
                    assert_eq!(
                        multi.telemetry.counter(name),
                        solo.telemetry.counter(name),
                        "{label}: counter {name} diverges from solo"
                    );
                }
            }

            let snap = svc.shutdown();
            assert_eq!(snap.counter("core.tenant.demux.misrouted"), 0);
        });
    }
}

// ---------------------------------------------------------------------
// Abort containment (regression: aborting tenant, surviving neighbours)
// ---------------------------------------------------------------------

/// Tenant A's shard-1 aggregator crashes mid-stream: A's worker fails
/// with a typed error naming the dead shard, A's goodbyes still wind
/// down its *own* surviving shard-0 engine (the teardown-after-failure
/// fix; companion to the `shutdown_errors` tests in `membership.rs`) —
/// and tenant B, running concurrently on the same fleet the whole time,
/// finishes bit-identical to its solo run. One tenant's abort must
/// never wind down another tenant's lanes.
#[test]
fn aborting_tenant_winds_down_alone_and_neighbours_finish_exact() {
    with_deadline(Duration::from_secs(60), || {
        const LEN: usize = 256;
        let max_retransmits = 6;
        let crash_cfg = tenant_cfg(1, LEN)
            .with_deterministic()
            .with_initial_rto(Duration::from_millis(25))
            .with_rto_bounds(Duration::from_millis(25), Duration::from_millis(100))
            .with_max_retransmits(max_retransmits);
        let crash_plan = FaultPlan::new(61).crash_after(crash_cfg.aggregator_node(1), 2);

        let b_inputs = round_inputs(2, LEN, 6, 0x7000);
        let b_solo = solo_lossless(
            TenantSpec::lossless(tenant_cfg(2, LEN)),
            b_inputs.clone(),
            64,
        );

        let mut svc = TenantService::with_registry(SHARDS, 64, registry(2));
        let a = svc
            .admit(TenantSpec::recovery(crash_cfg.clone()).with_plan(crash_plan))
            .expect("admit crashing tenant");
        let b = svc
            .admit(TenantSpec::lossless(tenant_cfg(2, LEN)))
            .expect("admit healthy tenant");

        let (a_out, b_out) = std::thread::scope(|scope| {
            let ja = scope.spawn(|| a.run_recovery(round_inputs(1, LEN, 2, 0x8000)));
            let jb = scope.spawn(|| b.run_lossless(b_inputs.clone()));
            (
                ja.join().expect("tenant A panicked"),
                jb.join().expect("tenant B panicked"),
            )
        });

        // A failed fast with a typed error naming its own dead shard …
        match &a_out.workers[0].result {
            Err(ProtocolError::PeerUnresponsive {
                peer, retransmits, ..
            }) => {
                assert_eq!(*peer, crash_cfg.aggregator_node(1), "wrong shard blamed");
                assert_eq!(*retransmits, max_retransmits);
            }
            other => panic!("tenant A: expected PeerUnresponsive, got {other:?}"),
        }
        // … its goodbyes went out despite the failure (the regression:
        // teardown must follow an aborted round) …
        assert!(
            a_out.workers[0].shutdown.is_ok(),
            "tenant A goodbye fan-out failed: {:?}",
            a_out.workers[0].shutdown
        );
        // … so A's *surviving* shard-0 engine wound down on them, while
        // the crashed shard-1 engine observed its own death.
        assert!(
            a_out.aggs[0].0.is_ok(),
            "A's surviving shard hung or failed"
        );
        assert!(a_out.aggs[1].0.is_err(), "A's crashed shard reported Ok");

        // Tenant B never noticed: all rounds, all bits, all counters.
        assert_outputs_equal("tenant B", &b_out.outputs, &b_solo.outputs);
        assert_eq!(b_out.stats, b_solo.stats, "tenant B worker stats");
        assert_eq!(b_out.agg_stats, b_solo.agg_stats, "tenant B agg stats");
        for name in LOSSLESS_COUNTERS {
            assert_eq!(
                b_out.telemetry.counter(name),
                b_solo.telemetry.counter(name),
                "tenant B: counter {name}"
            );
        }

        assert_eq!(svc.live_tenants(), 0, "both tenants must deregister");
        let snap = svc.shutdown();
        assert_eq!(snap.counter("core.tenant.completed"), 2);
        assert_eq!(snap.counter("core.tenant.demux.misrouted"), 0);
    });
}

// ---------------------------------------------------------------------
// Quota backpressure: throttled, never corrupted
// ---------------------------------------------------------------------

/// A tenant with a one-byte round quota is over quota every round: the
/// scheduler charges it virtual-time debt (visible as throttle events),
/// yet its outputs and stats stay exactly equal to an unmetered solo
/// run — backpressure slows a tenant down, it never touches payloads.
#[test]
fn quota_overuse_throttles_grants_but_never_corrupts() {
    with_deadline(Duration::from_secs(60), || {
        const LEN: usize = 256;
        const ROUNDS: usize = 4;
        let inputs = round_inputs(1, LEN, ROUNDS, 0x9000);

        let solo = solo_lossless(TenantSpec::lossless(tenant_cfg(1, LEN)), inputs.clone(), 64);

        let mut svc = TenantService::with_registry(SHARDS, 64, registry(2));
        let metered = svc
            .admit(TenantSpec::lossless(tenant_cfg(1, LEN)).with_quota(1))
            .expect("admit metered tenant");
        let peer = svc
            .admit(TenantSpec::lossless(tenant_cfg(1, LEN)))
            .expect("admit peer tenant");

        let (m_out, p_out) = std::thread::scope(|scope| {
            let jm = scope.spawn(|| metered.run_lossless(inputs.clone()));
            let jp = scope.spawn(|| peer.run_lossless(round_inputs(1, LEN, ROUNDS, 0xA000)));
            (
                jm.join().expect("metered tenant panicked"),
                jp.join().expect("peer tenant panicked"),
            )
        });
        assert_eq!(p_out.outputs[0].len(), ROUNDS, "peer completed all rounds");

        assert_outputs_equal("metered tenant", &m_out.outputs, &solo.outputs);
        assert_eq!(m_out.stats, solo.stats, "metered tenant worker stats");

        let snap = svc.shutdown();
        assert!(
            snap.counter("core.tenant.sched.throttles") >= (ROUNDS - 1) as u64,
            "a one-byte quota must throttle (got {})",
            snap.counter("core.tenant.sched.throttles")
        );
    });
}

// ---------------------------------------------------------------------
// Engine equivalence: the service adds routing, not bytes
// ---------------------------------------------------------------------

/// A solo tenant on the service (stream 1) produces byte-for-byte the
/// same outputs, worker stats and aggregator stats as the plain
/// [`ShardedAllReduce`] harness running the same config with the same
/// stream id — demux, virtual lanes and the scheduler are invisible on
/// the wire.
#[test]
fn solo_service_tenant_matches_plain_sharded_harness() {
    with_deadline(Duration::from_secs(60), || {
        const LEN: usize = 512;
        let cfg = tenant_cfg(2, LEN);
        let inputs: Vec<Vec<Tensor>> = gen_inputs(2, LEN, 0xB000)
            .into_iter()
            .map(|t| vec![t])
            .collect();

        let service = solo_lossless(TenantSpec::lossless(cfg.clone()), inputs.clone(), 64);
        assert_eq!(service.stream, 1, "first admission takes stream 1");

        // The harness must speak the same dialect: stream id 1.
        let harness = ShardedAllReduce::run::<Lossless>(&cfg.with_stream_id(1), None, inputs, None)
            .expect_ok();

        assert_outputs_equal("service vs harness", &service.outputs, &harness.outputs);
        assert_eq!(service.stats, harness.stats, "worker stats differ");
        assert_eq!(
            service.agg_stats, harness.agg_stats,
            "aggregator stats differ"
        );
    });
}

//! Test and example support: a full OmniReduce group in-process, the
//! conformance scenario matrix and its scalar oracle.
//!
//! [`run_group`] and [`run_recovery_group`] deploy a group through the
//! one driver, [`crate::group::run`], over an in-process channel mesh
//! (or any flat mesh the caller provides), and return every worker's
//! tensors plus traffic statistics, panicking on any failure. Used by
//! unit, property and integration tests and by the bench binaries.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::{ChannelNetwork, Transport};

use crate::config::OmniConfig;
use crate::group::{self, GroupResult, Lossless, Nodes, Recovery};

/// Deadlock watchdog for tests: runs `f` on a helper thread and panics
/// if it has not finished within `deadline` — a stalled collective
/// fails fast with a diagnosable message instead of hanging CI until
/// the job-level timeout kills it with no context.
///
/// If `f` itself panics, the panic is resumed on the caller's thread so
/// assertion messages surface normally. On deadline expiry the stalled
/// thread is left running (threads cannot be killed safely); the test
/// process exits when the harness finishes.
///
/// ```no_run
/// use std::time::Duration;
/// omnireduce_core::testing::with_deadline(Duration::from_secs(30), || {
///     // run a collective that must terminate
/// });
/// ```
///
/// # Panics
/// Panics when `f` does not complete within `deadline`, or when `f`
/// panics.
pub fn with_deadline<R, F>(deadline: Duration, f: F) -> R
where
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    let (tx, rx) = mpsc::channel::<()>();
    let handle = thread::Builder::new()
        .name("with-deadline-body".into())
        .spawn(move || {
            let r = f();
            let _ = tx.send(());
            r
        })
        .expect("failed to spawn watchdog body thread");
    match rx.recv_timeout(deadline) {
        Ok(()) => match handle.join() {
            Ok(r) => r,
            Err(e) => std::panic::resume_unwind(e),
        },
        // Channel closed without a completion signal: the body panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Ok(r) => r,
            Err(e) => std::panic::resume_unwind(e),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => panic!(
            "with_deadline: test body still running after {deadline:?} — \
             the collective appears stalled (suspects: a retransmission \
             loop against a dead peer without a retry budget, a phase \
             waiting for an evicted/crashed worker, or a partition that \
             never heals). Thread 'with-deadline-body' is wedged; \
             failing fast instead of hanging CI."
        ),
    }
}

/// Runs `rounds` AllReduce rounds over the lossless engine on an
/// in-process channel mesh, with `inputs[w][r]` as worker `w`'s input
/// for round `r`.
///
/// # Panics
/// Panics when shapes don't match the config or any node fails.
pub fn run_group(cfg: &OmniConfig, inputs: Vec<Vec<Tensor>>) -> GroupResult<Lossless> {
    let endpoints = ChannelNetwork::new(cfg.mesh_size()).endpoints();
    group::run::<Lossless>(cfg, Nodes::mesh(cfg, endpoints), inputs, None, None).expect_ok()
}

/// Like [`run_group`] but over the Algorithm 2 loss-recovery engine and a
/// caller-supplied transport mesh (typically channel endpoints wrapped by
/// [`omnireduce_transport::ChaosNetwork`]). `endpoints` must be indexed by
/// node id (workers first, shards after).
///
/// # Panics
/// Panics when shapes don't match the config or any node fails.
pub fn run_recovery_group<T: Transport>(
    cfg: &OmniConfig,
    endpoints: Vec<T>,
    inputs: Vec<Vec<Tensor>>,
) -> GroupResult<Recovery> {
    group::run::<Recovery>(cfg, Nodes::mesh(cfg, endpoints), inputs, None, None).expect_ok()
}

/// One point of the cross-engine conformance matrix (DESIGN §9): a
/// seeded scenario covering every data-plane axis — workers × sparsity ×
/// block geometry × fusion × shards × determinism × loss. Shared by the
/// executable-engine conformance suite (`crates/core/tests/conformance.rs`)
/// and the parallel-simnet differential suite
/// (`tests/simnet_parallel.rs`), so both prove bit-exactness over the
/// *same* matrix.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Worker count.
    pub workers: usize,
    /// Tensor length in f32 elements.
    pub elements: usize,
    /// Block size.
    pub block_size: usize,
    /// Blocks fused per packet.
    pub fusion: usize,
    /// Concurrent streams.
    pub streams: usize,
    /// Aggregator shards.
    pub aggregators: usize,
    /// Fraction of all-zero blocks.
    pub sparsity: f64,
    /// Non-zero density inside non-zero blocks.
    pub density_within: f64,
    /// How workers' non-zero sets overlap.
    pub overlap: OverlapMode,
    /// §7 deterministic (worker-id-order) reduction.
    pub deterministic: bool,
    /// Per-packet drop probability for the lossy recovery run.
    pub loss: f64,
    /// AllReduce rounds per run.
    pub rounds: usize,
    /// Scenario seed (drives input generation and loss plans).
    pub seed: u64,
}

/// The seeded scenario matrix: every axis of the data plane that the
/// pooling/vectorization rewrite touched.
pub fn scenarios() -> Vec<Scenario> {
    let mut v = Vec::new();
    let base = Scenario {
        workers: 2,
        elements: 1 << 12,
        block_size: 64,
        fusion: 2,
        streams: 2,
        aggregators: 1,
        sparsity: 0.5,
        density_within: 1.0,
        overlap: OverlapMode::Random,
        deterministic: false,
        loss: 0.0,
        rounds: 1,
        seed: 1,
    };
    // Sparsity sweep (dense, half, highly sparse).
    for (i, s) in [0.0, 0.5, 0.9].into_iter().enumerate() {
        v.push(Scenario {
            sparsity: s,
            seed: 10 + i as u64,
            ..base
        });
    }
    // Geometry sweep: block size × fusion × shards × workers.
    v.push(Scenario {
        workers: 3,
        block_size: 128,
        fusion: 4,
        streams: 4,
        aggregators: 2,
        seed: 20,
        ..base
    });
    v.push(Scenario {
        workers: 4,
        block_size: 32,
        fusion: 1,
        streams: 8,
        aggregators: 4,
        sparsity: 0.75,
        seed: 21,
        ..base
    });
    // Tail geometry: tensor length not a multiple of block×fusion×streams.
    v.push(Scenario {
        elements: (1 << 12) + 257,
        block_size: 96,
        fusion: 3,
        streams: 2,
        seed: 22,
        ..base
    });
    // Deterministic (§7 worker-id-order) reduction.
    v.push(Scenario {
        workers: 3,
        deterministic: true,
        aggregators: 2,
        seed: 30,
        ..base
    });
    // Overlap modes exercise different min-next interleavings.
    v.push(Scenario {
        overlap: OverlapMode::All,
        sparsity: 0.8,
        seed: 40,
        ..base
    });
    v.push(Scenario {
        overlap: OverlapMode::None,
        sparsity: 0.8,
        workers: 3,
        seed: 41,
        ..base
    });
    // Partially-dense blocks (zeros inside non-zero blocks).
    v.push(Scenario {
        density_within: 0.4,
        seed: 42,
        ..base
    });
    // Loss plans: the recovery engine must still be bit-identical under
    // drops and duplicates (idempotent two-phase slots).
    v.push(Scenario {
        loss: 0.1,
        seed: 50,
        ..base
    });
    v.push(Scenario {
        loss: 0.25,
        workers: 3,
        deterministic: true,
        seed: 51,
        ..base
    });
    // Multi-round: pooled buffers and in-place slot resets must carry no
    // state across rounds.
    v.push(Scenario {
        rounds: 3,
        sparsity: 0.6,
        seed: 60,
        ..base
    });
    v
}

/// Builds the [`OmniConfig`] for a scenario.
pub fn config_of(s: &Scenario) -> OmniConfig {
    let mut cfg = OmniConfig::new(s.workers, s.elements)
        .with_block_size(s.block_size)
        .with_fusion(s.fusion)
        .with_streams(s.streams)
        .with_aggregators(s.aggregators);
    if s.deterministic {
        cfg = cfg.with_deterministic();
    }
    cfg
}

/// Quantizes every element to a multiple of 0.25. Generated magnitudes
/// are in [0.5, 1.5), so quantization never creates a new zero (the
/// non-zero block structure is preserved) and all sums are exact —
/// *any* reduction order must produce the same bits.
pub fn quantize(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v = (*v * 4.0).round() * 0.25;
    }
}

/// Per-round quantized inputs: `inputs[w][r]`.
pub fn gen_inputs(s: &Scenario) -> Vec<Vec<Tensor>> {
    let mut per_worker: Vec<Vec<Tensor>> = vec![Vec::new(); s.workers];
    for r in 0..s.rounds {
        let mut round = gen::workers(
            s.workers,
            s.elements,
            BlockSpec::new(s.block_size),
            s.sparsity,
            s.density_within,
            s.overlap,
            s.seed + 1000 * r as u64,
        );
        for (w, t) in round.iter_mut().enumerate() {
            quantize(t);
            per_worker[w].push(t.clone());
        }
    }
    per_worker
}

/// The oracle: a plain scalar loop, element by element, in worker-id
/// order. No vectorized kernel, no engine machinery.
pub fn scalar_oracle(inputs: &[Vec<Tensor>], round: usize) -> Tensor {
    let len = inputs[0][round].len();
    let mut out = vec![0.0f32; len];
    for w in inputs {
        for (o, v) in out.iter_mut().zip(w[round].as_slice()) {
            *o += *v;
        }
    }
    Tensor::from_vec(out)
}

/// Asserts two tensors are bit-for-bit equal, element by element.
///
/// # Panics
/// Panics with `ctx` and the differing index on any mismatch.
pub fn assert_bits_eq(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: element {i} differs: {g} vs {w}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_deadline_returns_the_value() {
        assert_eq!(with_deadline(Duration::from_secs(5), || 41 + 1), 42);
    }

    #[test]
    #[should_panic(expected = "still running after")]
    fn with_deadline_detects_a_stall() {
        with_deadline(Duration::from_millis(50), || {
            thread::sleep(Duration::from_secs(600));
        });
    }

    #[test]
    #[should_panic(expected = "inner assertion fired")]
    fn with_deadline_propagates_body_panics() {
        with_deadline(Duration::from_secs(5), || panic!("inner assertion fired"));
    }
}

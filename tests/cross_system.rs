//! Cross-crate integration tests: every collective implementation in the
//! workspace — OmniReduce (lossless, recovery, switch-constrained), ring,
//! AGsparse, SparCML (both variants) and the parameter server — must
//! produce the same AllReduce sum on the same inputs.

use std::thread;

use omnireduce::collectives::{agsparse, ps, ring, sparcml};
use omnireduce::core::config::OmniConfig;
use omnireduce::core::testing::{run_group, run_recovery_group};
use omnireduce::tensor::convert::{coo_to_dense, dense_to_coo};
use omnireduce::tensor::dense::reference_sum;
use omnireduce::tensor::gen::{self, OverlapMode};
use omnireduce::tensor::{BlockSpec, CooTensor, Tensor};
use omnireduce::transport::{ChannelNetwork, ChaosNetwork, FaultPlan, KeyedLoss, NodeId};

const N: usize = 4;
const LEN: usize = 1536;
const TOL: f32 = 1e-3;

fn inputs(seed: u64) -> Vec<Tensor> {
    gen::workers(
        N,
        LEN,
        BlockSpec::new(16),
        0.6,
        0.8,
        OverlapMode::Random,
        seed,
    )
}

fn run_ring(inputs: &[Tensor]) -> Vec<Tensor> {
    let mut net = ChannelNetwork::new(N);
    let handles: Vec<_> = inputs
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, mut t)| {
            let ep = net.endpoint(NodeId(i as u16));
            thread::spawn(move || {
                ring::allreduce(&ep, N, &mut t).unwrap();
                t
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn run_agsparse(inputs: &[Tensor]) -> Vec<Tensor> {
    let coos: Vec<CooTensor> = inputs.iter().map(dense_to_coo).collect();
    let mut net = ChannelNetwork::new(N);
    let handles: Vec<_> = coos
        .into_iter()
        .enumerate()
        .map(|(i, coo)| {
            let ep = net.endpoint(NodeId(i as u16));
            thread::spawn(move || coo_to_dense(&agsparse::allreduce(&ep, N, &coo).unwrap()))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn run_sparcml(inputs: &[Tensor], variant: sparcml::Variant) -> Vec<Tensor> {
    let coos: Vec<CooTensor> = inputs.iter().map(dense_to_coo).collect();
    let mut net = ChannelNetwork::new(N);
    let handles: Vec<_> = coos
        .into_iter()
        .enumerate()
        .map(|(i, coo)| {
            let ep = net.endpoint(NodeId(i as u16));
            thread::spawn(move || sparcml::allreduce(&ep, N, &coo, variant).unwrap())
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn run_ps(inputs: &[Tensor]) -> Vec<Tensor> {
    let cfg = ps::PsConfig::new(N, 2, LEN);
    let mut net = ChannelNetwork::new(cfg.mesh_size());
    let mut servers = Vec::new();
    for s in 0..cfg.num_servers {
        let ep = net.endpoint(NodeId(cfg.server_node(s)));
        let cfg = cfg.clone();
        servers.push(thread::spawn(move || {
            ps::dense_server(&ep, &cfg, 1).unwrap()
        }));
    }
    let handles: Vec<_> = inputs
        .iter()
        .cloned()
        .enumerate()
        .map(|(w, mut t)| {
            let ep = net.endpoint(NodeId(w as u16));
            let cfg = cfg.clone();
            thread::spawn(move || {
                ps::dense_allreduce(&ep, &cfg, &mut t).unwrap();
                t
            })
        })
        .collect();
    let outs = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for s in servers {
        s.join().unwrap();
    }
    outs
}

fn run_omni(inputs: &[Tensor]) -> Vec<Tensor> {
    let cfg = OmniConfig::new(N, LEN)
        .with_block_size(16)
        .with_fusion(2)
        .with_streams(4);
    run_group(&cfg, inputs.iter().map(|t| vec![t.clone()]).collect())
        .outputs
        .into_iter()
        .map(|mut o| o.remove(0))
        .collect()
}

fn run_omni_recovery(inputs: &[Tensor]) -> Vec<Tensor> {
    let mut cfg = OmniConfig::new(N, LEN)
        .with_block_size(16)
        .with_fusion(2)
        .with_streams(4);
    cfg.retransmit_timeout = std::time::Duration::from_millis(5);
    let plan = FaultPlan::new(3).loss(KeyedLoss::uniform(0.05, 0.0));
    let endpoints = ChaosNetwork::wrap(
        ChannelNetwork::new(cfg.mesh_size()).endpoints(),
        &plan,
        None,
    );
    run_recovery_group(
        &cfg,
        endpoints,
        inputs.iter().map(|t| vec![t.clone()]).collect(),
    )
    .outputs
    .into_iter()
    .map(|mut o| o.remove(0))
    .collect()
}

#[test]
fn all_collectives_agree_on_the_sum() {
    let inputs = inputs(1);
    let expect = reference_sum(&inputs);
    let systems: Vec<(&str, Vec<Tensor>)> = vec![
        ("omnireduce", run_omni(&inputs)),
        ("omnireduce-recovery", run_omni_recovery(&inputs)),
        ("ring", run_ring(&inputs)),
        ("agsparse", run_agsparse(&inputs)),
        ("sparcml-ssar", run_sparcml(&inputs, sparcml::Variant::Ssar)),
        ("sparcml-dsar", run_sparcml(&inputs, sparcml::Variant::Dsar)),
        ("parameter-server", run_ps(&inputs)),
    ];
    for (name, outs) in systems {
        for (w, out) in outs.iter().enumerate() {
            assert!(
                out.approx_eq(&expect, TOL),
                "{name} worker {w} diverges by {}",
                out.max_abs_diff(&expect)
            );
        }
    }
}

#[test]
fn facade_reexports_are_complete() {
    // Compile-time check that the facade exposes the full workspace.
    use omnireduce::collectives::cost::CostParams;
    use omnireduce::ddl::Dataset;
    use omnireduce::simnet::SimTime;
    use omnireduce::sparsify::Identity;
    use omnireduce::workloads::Workload;
    let _ = CostParams::new_gbps(10.0, 5.0);
    let _ = Dataset::synthetic(4, 2, 0.0, 1);
    let _ = SimTime::from_millis(1);
    let _ = Identity;
    assert_eq!(Workload::all().len(), 6);
}

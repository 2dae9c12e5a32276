//! Integration: the lossless engines (`OmniWorker` / `OmniAggregator`)
//! over `TcpNetwork::establish`.
//!
//! The TCP endpoint defers output while decoded input is queued and
//! coalesces a burst into one `write` per peer; the Algorithm 1 machines
//! depend on per-link FIFO (DESIGN §16). A representative handful of the
//! conformance matrix (`core::testing::scenarios`) therefore runs over
//! real sockets: every output must be bit-identical to the scalar oracle,
//! and every worker's counters must equal those of the same scenario over
//! the in-process channel mesh — same packets, same bytes, same results,
//! whatever the transport did with the timing.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicU16, Ordering};
use std::time::Duration;

use omnireduce::core::config::OmniConfig;
use omnireduce::core::group::{self, GroupResult, Lossless, Nodes};
use omnireduce::core::testing::{
    assert_bits_eq, config_of, gen_inputs, run_group, scalar_oracle, scenarios, with_deadline,
    Scenario,
};
use omnireduce::tensor::Tensor;
use omnireduce::transport::{NodeId, TcpNetwork};

/// Loopback port allocator, in a range no other test uses.
static NEXT_PORT: AtomicU16 = AtomicU16::new(30_000);

fn alloc_addrs(n: usize) -> Vec<SocketAddr> {
    let base = NEXT_PORT.fetch_add(n as u16, Ordering::SeqCst);
    (0..n)
        .map(|i| SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), base + i as u16))
        .collect()
}

/// `core::testing::run_group` with every node establishing its own TCP
/// endpoint from its own thread, as separate processes would.
fn run_group_over_tcp(cfg: &OmniConfig, inputs: Vec<Vec<Tensor>>) -> GroupResult<Lossless> {
    let addrs = alloc_addrs(cfg.mesh_size());
    let establish = |node| TcpNetwork::establish(NodeId(node), &addrs).expect("tcp establish");
    group::run::<Lossless>(cfg, Nodes::per_node(cfg, &establish), inputs, None, None).expect_ok()
}

/// The scenarios run over sockets, by seed: dense (10), 90 % sparse (12),
/// fusion 4 over two aggregators (20), fusion 1 over four (21), a tail
/// block (22), and three rounds over the same connections (60).
const SEEDS: [u64; 6] = [10, 12, 20, 21, 22, 60];

fn check(s: &Scenario) {
    let cfg = config_of(s);
    let inputs = gen_inputs(s);
    let GroupResult { outputs, stats, .. } = run_group_over_tcp(&cfg, inputs.clone());
    for r in 0..s.rounds {
        let oracle = scalar_oracle(&inputs, r);
        for (w, outs) in outputs.iter().enumerate() {
            assert_bits_eq(&outs[r], &oracle, &format!("{s:?} tcp w{w} r{r}"));
        }
    }
    let over_channels = run_group(&cfg, inputs);
    assert_eq!(
        stats, over_channels.stats,
        "{s:?}: worker stats, tcp vs channel"
    );
}

#[test]
fn lossless_engines_over_tcp_match_oracle_and_channel_stats() {
    with_deadline(Duration::from_secs(240), || {
        let picked: Vec<Scenario> = scenarios()
            .into_iter()
            .filter(|s| SEEDS.contains(&s.seed))
            .collect();
        assert_eq!(picked.len(), SEEDS.len(), "scenario seeds changed");
        picked.iter().for_each(check);
    });
}

/// The benchmark's own shape, scaled down: four workers at 90 % block
/// sparsity with fusion 4 and eight streams, several rounds back to back,
/// so bursts of results queue behind each other and sends really are
/// deferred and coalesced.
#[test]
fn bursty_rounds_over_tcp_match_oracle_and_channel_stats() {
    with_deadline(Duration::from_secs(240), || {
        let base = scenarios()[0];
        check(&Scenario {
            workers: 4,
            elements: 1 << 17,
            block_size: 256,
            fusion: 4,
            streams: 8,
            sparsity: 0.9,
            rounds: 4,
            seed: 70,
            ..base
        });
    });
}

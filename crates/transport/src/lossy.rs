//! Tests of what a lossy link does to traffic under keyed loss, uniform
//! and bursty, through a [`crate::ChaosTransport`]: delivery at zero and
//! full loss, the control-plane exemption, rates, duplication, counters
//! and replay. The loss model itself lives in [`crate::fault`].

mod tests {
    use std::time::Duration;

    use omnireduce_telemetry::Telemetry;

    use crate::channel::{ChannelNetwork, ChannelTransport};
    use crate::fault::tests::data;
    use crate::fault::{ChaosNetwork, ChaosTransport, FaultPlan, GilbertElliott, KeyedLoss};
    use crate::message::{Message, NodeId};
    use crate::Transport;

    /// How long a receiver waits to confirm that nothing arrives.
    const QUIET: Duration = Duration::from_millis(5);

    type Mesh = Vec<ChaosTransport<ChannelTransport>>;

    fn mesh(n: usize, seed: u64, loss: KeyedLoss, telemetry: Option<&Telemetry>) -> Mesh {
        let plan = FaultPlan::new(seed).loss(loss);
        ChaosNetwork::wrap(ChannelNetwork::new(n).endpoints(), &plan, telemetry)
    }

    /// The fleet-wide count of `transport.fault.{kind}` injections.
    fn count(telemetry: &Telemetry, kind: &str) -> u64 {
        let name = format!("transport.fault.{kind}");
        telemetry.snapshot().counter(&name)
    }

    /// `pattern[f][k]`: attempt `k` of flow `f`, sent from node 0 to node 1,
    /// was dropped.
    fn pattern(seed: u64, loss: KeyedLoss, flows: u16, attempts: usize) -> Vec<Vec<bool>> {
        let eps = mesh(2, seed, loss, None);
        (0..flows)
            .map(|f| {
                (0..attempts)
                    .map(|_| {
                        eps[0].send(NodeId(1), &data(f, 0, f % 5)).unwrap();
                        eps[1].recv_timeout(Duration::ZERO).unwrap().is_none()
                    })
                    .collect()
            })
            .collect()
    }

    /// Dropped share of every attempt in `p`.
    fn rate(p: &[Vec<bool>]) -> f64 {
        let drops = p.iter().flatten().filter(|d| **d).count();
        drops as f64 / p.iter().map(Vec::len).sum::<usize>() as f64
    }

    fn bursty(avg: f64, bad: f64, b2g: f64) -> KeyedLoss {
        KeyedLoss::uniform(0.0, 0.0).with_burst(GilbertElliott::from_average(avg, bad, b2g))
    }

    #[test]
    fn zero_loss_delivers_everything() {
        let p = pattern(1, KeyedLoss::uniform(0.0, 0.0), 100, 2);
        assert_eq!(rate(&p), 0.0);
    }

    #[test]
    fn full_loss_drops_everything() {
        let telemetry = Telemetry::new();
        let eps = mesh(2, 1, KeyedLoss::uniform(1.0, 0.0), Some(&telemetry));
        // Fresh flows and retransmissions of one flow alike.
        for f in 0..50 {
            eps[0].send(NodeId(1), &data(f, 0, f % 5)).unwrap();
            eps[0].send(NodeId(1), &data(7, 0, 2)).unwrap();
        }
        assert!(eps[1].recv_timeout(QUIET).unwrap().is_none());
        assert_eq!(count(&telemetry, "keyed_drops"), 100);
    }

    #[test]
    fn control_messages_bypass_loss() {
        let telemetry = Telemetry::new();
        let eps = mesh(2, 1, KeyedLoss::uniform(1.0, 0.0), Some(&telemetry));
        let control = [
            Message::Start { seq: 1 },
            Message::Join { wid: 0 },
            Message::Welcome {
                epoch: 1,
                vers: vec![0, 1],
            },
            Message::Shutdown,
        ];
        for msg in &control {
            eps[0].send(NodeId(1), msg).unwrap();
            let (from, got) = eps[1].recv_timeout(Duration::ZERO).unwrap().unwrap();
            assert_eq!((from, &got), (NodeId(0), msg));
        }
        assert_eq!(count(&telemetry, "keyed_drops"), 0);
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let p = pattern(7, KeyedLoss::uniform(0.3, 0.0), 1000, 2);
        let rate = rate(&p);
        assert!((rate - 0.3).abs() < 0.05, "observed drop rate {rate}");
    }

    #[test]
    fn duplication_duplicates() {
        let telemetry = Telemetry::new();
        let eps = mesh(2, 1, KeyedLoss::uniform(0.0, 1.0), Some(&telemetry));
        for f in 0..10 {
            eps[0].send(NodeId(1), &data(f, 0, f % 5)).unwrap();
        }
        for _ in 0..20 {
            assert!(eps[1].recv_timeout(Duration::ZERO).unwrap().is_some());
        }
        assert!(eps[1].recv_timeout(QUIET).unwrap().is_none());
        assert_eq!(count(&telemetry, "keyed_dups"), 10);
    }

    #[test]
    fn telemetry_mirrors_fleet_wide_counts() {
        // One registry counter aggregates the drops of every endpoint.
        let telemetry = Telemetry::new();
        let eps = mesh(3, 1, KeyedLoss::uniform(1.0, 0.0), Some(&telemetry));
        for (from, sends) in [(0, 20), (1, 30)] {
            for f in 0..sends {
                eps[from].send(NodeId(2), &data(f, 0, f % 5)).unwrap();
            }
        }
        assert_eq!(count(&telemetry, "keyed_drops"), 50);
        assert_eq!(count(&telemetry, "keyed_dups"), 0);
    }

    #[test]
    fn drop_pattern_is_deterministic() {
        let run = |seed| pattern(seed, KeyedLoss::uniform(0.5, 0.0), 100, 2);
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    /// Long-run loss over every attempt of a burst chain matches the
    /// configured stationary average.
    #[test]
    fn burst_loss_matches_configured_average() {
        for (avg, bad_loss, b2g) in [(0.01, 0.5, 0.1), (0.05, 0.8, 0.25), (0.10, 1.0, 0.2)] {
            let rate = rate(&pattern(1234, bursty(avg, bad_loss, b2g), 10_000, 4));
            assert!(
                (rate - avg).abs() < 0.35 * avg + 0.002,
                "avg {avg}: observed {rate}"
            );
        }
    }

    /// Under a burst chain, a retransmission of a dropped packet dies far
    /// more often than under uniform keyed loss at the same average rate —
    /// the property the bursty RTO ablation depends on.
    #[test]
    fn burst_loss_is_burstier_than_uniform() {
        // P(attempt k+1 dropped | attempt k dropped).
        let redrop = |p: &[Vec<bool>]| {
            let (mut pairs, mut both) = (0, 0);
            for flow in p {
                for w in flow.windows(2).filter(|w| w[0]) {
                    pairs += 1;
                    both += w[1] as usize;
                }
            }
            both as f64 / pairs as f64
        };
        let avg = 0.10;
        let uniform = pattern(11, KeyedLoss::uniform(avg, 0.0), 2000, 4);
        let bursty = pattern(11, bursty(avg, 0.8, 0.2), 2000, 4);
        // Same average, over every attempt...
        for p in [&uniform, &bursty] {
            assert!((rate(p) - avg).abs() < 0.03, "average loss {}", rate(p));
        }
        // ...but a dropped attempt predicts the next one only in bursts.
        let (u, b) = (redrop(&uniform), redrop(&bursty));
        assert!((u - avg).abs() < 0.05, "uniform re-drop {u}");
        assert!(b > 0.5, "bursty re-drop {b} (uniform {u})");
    }

    #[test]
    fn burst_pattern_is_deterministic_per_seed() {
        let run = |seed| pattern(seed, bursty(0.05, 0.6, 0.2), 500, 4);
        assert_eq!(run(99), run(99));
    }
}

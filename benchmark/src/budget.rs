//! Reconciliation of the two per-layer sources: replay-lane unit costs
//! multiplied by the traced run's exact counts, against the in-situ self
//! time of the thread that did the work. What the product leaves
//! unexplained is reported as a gap share; a gap is a finding to chase,
//! not noise, and nothing gates on it.

/// One line of a budget: `count` units of work per round at `unit_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    pub layer: &'static str,
    pub count: f64,
    pub unit_ns: f64,
}

impl Item {
    pub fn ns(&self) -> f64 {
        self.count * self.unit_ns
    }
}

/// Nanoseconds per round the items account for.
pub fn total_ns(items: &[Item]) -> f64 {
    items.iter().map(Item::ns).sum()
}

/// Share of `self_ns` the items leave unexplained: `1 − Σ items / self`.
/// Negative when the replayed cost exceeds what the thread spent, which
/// says the lane is slower than the layer in place (cold caches, a
/// different mix of block sizes); 0 when there is no self time at all.
pub fn gap_share(items: &[Item], self_ns: f64) -> f64 {
    if self_ns > 0.0 {
        1.0 - total_ns(items) / self_ns
    } else {
        0.0
    }
}

/// Share of `of_ns` (a thread's self time, or a round's wall time) that
/// the items of `layer` account for.
pub fn layer_share(items: &[Item], layer: &str, of_ns: f64) -> f64 {
    if of_ns > 0.0 {
        items
            .iter()
            .filter(|i| i.layer == layer)
            .map(Item::ns)
            .sum::<f64>()
            / of_ns
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{summarize, LaneTrace, Role, Span, SpanKind, NO_PARENT};

    #[test]
    fn budget_against_a_hand_made_trace() {
        // One worker, two rounds of 10 µs each; in each the transport
        // holds 2 µs sending and 5 µs waiting, so 3 µs is the engine's.
        let mut spans = Vec::new();
        for r in 0..2u64 {
            let t = r * 20_000;
            let round = spans.len() as u32;
            let span = |kind, start_ns, end_ns, parent| Span {
                kind,
                start_ns,
                end_ns,
                parent,
                round: r as u32,
            };
            spans.push(span(SpanKind::Round, t, t + 10_000, NO_PARENT));
            spans.push(span(SpanKind::Send, t + 1_000, t + 3_000, round));
            spans.push(span(SpanKind::Recv, t + 4_000, t + 9_000, round));
        }
        let lanes = [LaneTrace {
            role: Role::Worker,
            node: 0,
            spans,
        }];
        let w = summarize(&lanes, Role::Worker);
        let self_per_round = w.self_ns as f64 / w.top_spans as f64;
        assert_eq!(self_per_round, 3_000.0);

        // 16 blocks scanned at 50 ns, 8 look-aheads at 25 ns, 5 checkouts
        // at 100 ns: 800 + 200 + 500 = 1500 ns of the 3000.
        let items = [
            Item {
                layer: "tensor.bitmap",
                count: 16.0,
                unit_ns: 50.0,
            },
            Item {
                layer: "tensor.fusion",
                count: 8.0,
                unit_ns: 25.0,
            },
            Item {
                layer: "transport.pool",
                count: 5.0,
                unit_ns: 100.0,
            },
        ];
        assert_eq!(total_ns(&items), 1_500.0);
        assert_eq!(gap_share(&items, self_per_round), 0.5);
        assert_eq!(
            layer_share(&items, "tensor.bitmap", self_per_round),
            800.0 / 3_000.0
        );
        // A lane slower than the layer in place gives a negative gap;
        // no self time gives none.
        assert_eq!(gap_share(&items, 1_000.0), -0.5);
        assert_eq!(gap_share(&items, 0.0), 0.0);
    }
}

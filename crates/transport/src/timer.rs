//! Retransmission timer queue (Appendix A: "The worker associates a timer
//! to every transmitted packet; if the timer fires, the worker assumes
//! packet loss and retransmits it") and the adaptive retransmission-
//! timeout estimator that drives it.
//!
//! A small monotonic-deadline queue with O(log n) insert and lazy
//! cancellation: cancelling bumps a per-key generation so stale heap
//! entries are skipped on pop. Keys identify outstanding packets — for the
//! OmniReduce worker, the stream id.
//!
//! [`RttEstimator`] implements RFC 6298-style SRTT/RTTVAR smoothing with
//! exponential backoff and deterministic jitter. Callers are responsible
//! for Karn's rule (never feed a sample measured across a retransmission)
//! — the OmniReduce worker only calls [`RttEstimator::sample`] for
//! request/result exchanges that completed without a retransmission.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;
use std::time::{Duration, Instant};

/// Adaptive retransmission-timeout (RTO) estimator.
///
/// Tracks a smoothed round-trip time (`SRTT`) and its variance
/// (`RTTVAR`) per RFC 6298 (`RTO = SRTT + 4·RTTVAR`), clamped to a
/// configured `[floor, ceiling]`, doubled on every timeout (exponential
/// backoff, also clamped to the ceiling), and spread by a small
/// deterministic jitter (±1/8 of the RTO, from a seeded xorshift) so a
/// fleet of workers that lost the same multicast doesn't retransmit in
/// lock-step.
///
/// In OmniReduce, the "RTT" of a request/result exchange includes the
/// time the aggregator waits for the *slowest* worker of the phase, so
/// the estimator learns the loaded phase latency — exactly the quantity
/// a fixed timer chronically under- or over-shoots.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RttEstimator {
    /// Smoothed RTT in nanoseconds; `None` until the first sample.
    srtt_ns: Option<u64>,
    /// RTT variance in nanoseconds.
    rttvar_ns: u64,
    /// RTO before backoff/clamping/jitter, nanoseconds.
    base_rto_ns: u64,
    floor_ns: u64,
    ceil_ns: u64,
    /// Current backoff exponent (0 = no backoff).
    backoff_exp: u32,
    /// Deterministic jitter source (xorshift64*).
    jitter_state: u64,
}

impl RttEstimator {
    /// Creates an estimator with the given initial RTO, floor and
    /// ceiling. `jitter_seed` makes the jitter stream deterministic per
    /// owner (e.g. worker id) — replays with the same seed produce the
    /// same RTO sequence.
    pub fn new(initial: Duration, floor: Duration, ceiling: Duration, jitter_seed: u64) -> Self {
        assert!(floor <= ceiling, "RTO floor above ceiling");
        let clamp = |d: Duration| {
            (d.as_nanos() as u64).clamp(floor.as_nanos() as u64, ceiling.as_nanos() as u64)
        };
        RttEstimator {
            srtt_ns: None,
            rttvar_ns: 0,
            base_rto_ns: clamp(initial),
            floor_ns: floor.as_nanos() as u64,
            ceil_ns: ceiling.as_nanos() as u64,
            backoff_exp: 0,
            // xorshift must not start at 0.
            jitter_state: jitter_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Feeds one RTT sample (RFC 6298 smoothing) and clears any backoff.
    ///
    /// Callers must apply Karn's rule: never sample an exchange that
    /// involved a retransmission (the result can't be matched to a
    /// specific transmission attempt).
    pub fn sample(&mut self, rtt: Duration) {
        let r = rtt.as_nanos() as u64;
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(r);
                self.rttvar_ns = r / 2;
            }
            Some(srtt) => {
                let err = srtt.abs_diff(r);
                // RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R|
                self.rttvar_ns = (3 * self.rttvar_ns + err) / 4;
                // SRTT = 7/8·SRTT + 1/8·R
                self.srtt_ns = Some((7 * srtt + r) / 8);
            }
        }
        self.base_rto_ns =
            (self.srtt_ns.unwrap() + 4 * self.rttvar_ns).clamp(self.floor_ns, self.ceil_ns);
        self.backoff_exp = 0;
    }

    /// Signals that an exchange completed (result received) without a
    /// usable RTT sample — e.g. after a retransmission (Karn's rule).
    /// Clears the backoff: the path is alive.
    pub fn ack(&mut self) {
        self.backoff_exp = 0;
    }

    /// Signals a retransmission timeout: doubles the RTO (clamped to the
    /// ceiling). Returns the new backoff exponent.
    pub fn on_timeout(&mut self) -> u32 {
        // Past 32 doublings the shift would overflow; the ceiling clamp
        // has long since saturated anyway.
        self.backoff_exp = (self.backoff_exp + 1).min(32);
        self.backoff_exp
    }

    /// Current backoff exponent.
    pub fn backoff_exp(&self) -> u32 {
        self.backoff_exp
    }

    /// Smoothed RTT so far, if any sample has been fed.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt_ns.map(Duration::from_nanos)
    }

    /// The RTO to arm next, without jitter: `base << backoff`, clamped.
    pub fn rto(&self) -> Duration {
        let shifted = self.base_rto_ns.saturating_shl(self.backoff_exp);
        Duration::from_nanos(shifted.clamp(self.floor_ns, self.ceil_ns))
    }

    /// The RTO to arm next with deterministic jitter applied: the base
    /// RTO scaled by a factor in `[1, 1 + 1/8)`. Jitter only ever
    /// *extends* the timer so the no-jitter RTO stays a lower bound (a
    /// timer can never fire before one RTO has elapsed); the result is
    /// clamped to the ceiling.
    pub fn next_rto(&mut self) -> Duration {
        // xorshift64* step.
        let mut x = self.jitter_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter_state = x;
        let word = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let base = self.rto().as_nanos() as u64;
        let jitter = (((base >> 3) as u128 * (word >> 32) as u128) >> 32) as u64;
        Duration::from_nanos((base + jitter).min(self.ceil_ns.max(base)))
    }
}

/// `u64::checked_shl` that saturates instead of wrapping.
trait SaturatingShl {
    fn saturating_shl(self, exp: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, exp: u32) -> u64 {
        if exp >= self.leading_zeros() {
            u64::MAX
        } else {
            self << exp
        }
    }
}

struct HeapItem<K> {
    deadline: Instant,
    key: K,
    generation: u64,
}

impl<K> PartialEq for HeapItem<K> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
    }
}
impl<K> Eq for HeapItem<K> {}
impl<K> PartialOrd for HeapItem<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for HeapItem<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest deadline first.
        other.deadline.cmp(&self.deadline)
    }
}

/// A deadline queue over keys of type `K`.
pub struct TimerQueue<K> {
    heap: BinaryHeap<HeapItem<K>>,
    live: HashMap<K, u64>,
    next_gen: u64,
    fired: u64,
}

impl<K: Eq + Hash + Clone> Default for TimerQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone> TimerQueue<K> {
    /// An empty queue.
    pub fn new() -> Self {
        TimerQueue {
            heap: BinaryHeap::new(),
            live: HashMap::new(),
            next_gen: 0,
            fired: 0,
        }
    }

    /// Number of timers that have fired (successfully popped via
    /// [`TimerQueue::pop_expired`]) over this queue's lifetime. Cancelled
    /// and superseded timers never count.
    pub fn fires(&self) -> u64 {
        self.fired
    }

    /// Arms (or re-arms) the timer for `key` to fire at `now + after`.
    pub fn arm(&mut self, key: K, now: Instant, after: Duration) {
        self.next_gen += 1;
        let generation = self.next_gen;
        self.live.insert(key.clone(), generation);
        self.heap.push(HeapItem {
            deadline: now + after,
            key,
            generation,
        });
    }

    /// Disarms the timer for `key`; a no-op when not armed.
    pub fn cancel(&mut self, key: &K) {
        self.live.remove(key);
    }

    /// Number of live (armed) timers.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Earliest live deadline, if any. Pops stale heap entries as a side
    /// effect.
    pub fn next_deadline(&mut self) -> Option<Instant> {
        while let Some(top) = self.heap.peek() {
            match self.live.get(&top.key) {
                Some(gen) if *gen == top.generation => return Some(top.deadline),
                _ => {
                    self.heap.pop();
                }
            }
        }
        None
    }

    /// Pops one expired timer at `now`, if any. The popped key is disarmed.
    pub fn pop_expired(&mut self, now: Instant) -> Option<K> {
        loop {
            let top = self.heap.peek()?;
            let live = matches!(self.live.get(&top.key), Some(g) if *g == top.generation);
            if !live {
                self.heap.pop();
                continue;
            }
            if top.deadline > now {
                return None;
            }
            let item = self.heap.pop().expect("peeked");
            match self.live.entry(item.key.clone()) {
                MapEntry::Occupied(e) if *e.get() == item.generation => {
                    e.remove();
                    self.fired += 1;
                    return Some(item.key);
                }
                _ => continue,
            }
        }
    }

    /// Time from `now` until the next live deadline, clamped below by
    /// zero; `None` when no timer is armed. Useful as a `recv_timeout`
    /// argument.
    pub fn until_next(&mut self, now: Instant) -> Option<Duration> {
        self.next_deadline()
            .map(|d| d.saturating_duration_since(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Instant {
        Instant::now()
    }

    #[test]
    fn arm_and_expire_in_order() {
        let now = t0();
        let mut q = TimerQueue::new();
        q.arm("b", now, Duration::from_millis(20));
        q.arm("a", now, Duration::from_millis(10));
        let later = now + Duration::from_millis(30);
        assert_eq!(q.pop_expired(later), Some("a"));
        assert_eq!(q.pop_expired(later), Some("b"));
        assert_eq!(q.pop_expired(later), None);
        assert!(q.is_empty());
        assert_eq!(q.fires(), 2);
    }

    #[test]
    fn not_expired_yet() {
        let now = t0();
        let mut q = TimerQueue::new();
        q.arm(1u32, now, Duration::from_secs(10));
        assert_eq!(q.pop_expired(now), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancel_prevents_fire() {
        let now = t0();
        let mut q = TimerQueue::new();
        q.arm(1u32, now, Duration::from_millis(1));
        q.cancel(&1);
        assert_eq!(q.pop_expired(now + Duration::from_secs(1)), None);
        assert!(q.is_empty());
        assert_eq!(q.fires(), 0, "cancelled timers never count as fires");
    }

    #[test]
    fn rearm_supersedes_old_deadline() {
        let now = t0();
        let mut q = TimerQueue::new();
        q.arm(1u32, now, Duration::from_millis(1));
        q.arm(1u32, now, Duration::from_secs(60)); // pushed out
        assert_eq!(q.pop_expired(now + Duration::from_secs(1)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_expired(now + Duration::from_secs(61)), Some(1));
    }

    #[test]
    fn rearm_to_earlier_deadline_fires_early() {
        let now = t0();
        let mut q = TimerQueue::new();
        q.arm(1u32, now, Duration::from_secs(60));
        q.arm(1u32, now, Duration::from_millis(1));
        assert_eq!(q.pop_expired(now + Duration::from_millis(5)), Some(1));
        assert!(q.is_empty());
    }

    #[test]
    fn next_deadline_skips_cancelled() {
        let now = t0();
        let mut q = TimerQueue::new();
        q.arm(1u32, now, Duration::from_millis(1));
        q.arm(2u32, now, Duration::from_millis(50));
        q.cancel(&1);
        let d = q.next_deadline().unwrap();
        assert!(d >= now + Duration::from_millis(50));
    }

    #[test]
    fn until_next_clamps_to_zero() {
        let now = t0();
        let mut q = TimerQueue::new();
        q.arm(1u32, now, Duration::from_millis(1));
        let until = q.until_next(now + Duration::from_secs(1)).unwrap();
        assert_eq!(until, Duration::ZERO);
        assert!(TimerQueue::<u32>::new().until_next(now).is_none());
    }

    // -- RttEstimator ---------------------------------------------------

    fn est(initial_ms: u64, floor_ms: u64, ceil_ms: u64) -> RttEstimator {
        RttEstimator::new(
            Duration::from_millis(initial_ms),
            Duration::from_millis(floor_ms),
            Duration::from_millis(ceil_ms),
            7,
        )
    }

    #[test]
    fn first_sample_initializes_srtt_and_var() {
        let mut e = est(20, 1, 1000);
        e.sample(Duration::from_millis(40));
        assert_eq!(e.srtt(), Some(Duration::from_millis(40)));
        // RTO = SRTT + 4·RTTVAR = 40 + 4·20 = 120 ms.
        assert_eq!(e.rto(), Duration::from_millis(120));
    }

    #[test]
    fn steady_samples_converge_toward_srtt() {
        let mut e = est(20, 1, 1000);
        for _ in 0..200 {
            e.sample(Duration::from_millis(10));
        }
        let rto = e.rto();
        assert!(
            rto >= Duration::from_millis(10) && rto < Duration::from_millis(15),
            "converged RTO {rto:?}"
        );
    }

    #[test]
    fn rto_adapts_upward_when_rtt_grows() {
        let mut e = est(20, 1, 10_000);
        for _ in 0..50 {
            e.sample(Duration::from_millis(5));
        }
        let low = e.rto();
        for _ in 0..50 {
            e.sample(Duration::from_millis(80));
        }
        let high = e.rto();
        assert!(high > low * 4, "RTO failed to adapt: {low:?} -> {high:?}");
        assert!(high >= Duration::from_millis(80));
    }

    #[test]
    fn timeout_backoff_doubles_and_sample_resets() {
        let mut e = est(20, 1, 10_000);
        assert_eq!(e.rto(), Duration::from_millis(20));
        e.on_timeout();
        assert_eq!(e.rto(), Duration::from_millis(40));
        e.on_timeout();
        assert_eq!(e.rto(), Duration::from_millis(80));
        assert_eq!(e.backoff_exp(), 2);
        e.sample(Duration::from_millis(20));
        assert_eq!(e.backoff_exp(), 0);
        let mut e2 = est(20, 1, 10_000);
        e2.on_timeout();
        e2.ack(); // Karn path: exchange completed after a retransmit
        assert_eq!(e2.rto(), Duration::from_millis(20));
    }

    #[test]
    fn rto_clamps_to_floor_and_ceiling() {
        let mut e = est(20, 10, 100);
        for _ in 0..100 {
            e.sample(Duration::from_micros(50)); // way below floor
        }
        assert_eq!(e.rto(), Duration::from_millis(10));
        for _ in 0..20 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), Duration::from_millis(100), "backoff must clamp");
        e.sample(Duration::from_secs(10));
        assert_eq!(e.rto(), Duration::from_millis(100), "sample must clamp");
    }

    #[test]
    fn jitter_extends_but_is_bounded_and_deterministic() {
        let collect = |seed: u64| {
            let mut e = RttEstimator::new(
                Duration::from_millis(16),
                Duration::from_millis(1),
                Duration::from_secs(10),
                seed,
            );
            (0..64).map(|_| e.next_rto()).collect::<Vec<_>>()
        };
        let a = collect(3);
        for rto in &a {
            assert!(*rto >= Duration::from_millis(16), "jitter shrank RTO");
            assert!(*rto <= Duration::from_millis(18), "jitter above 1/8");
        }
        assert_eq!(a, collect(3), "jitter stream must be deterministic");
        assert_ne!(a, collect(4), "different seeds must de-synchronize");
        assert!(
            a.iter().collect::<std::collections::HashSet<_>>().len() > 16,
            "jitter must actually vary"
        );
    }

    #[test]
    #[should_panic(expected = "floor above ceiling")]
    fn estimator_rejects_inverted_bounds() {
        est(5, 100, 10);
    }
}

//! Exhaustive small-scope check of Algorithm 2's pure state machines
//! ([`WorkerPhases`] × [`PhaseTable`]): no threads, no transport, no
//! clock.
//!
//! A round of 2 workers and one shard is driven through **every
//! schedule** a lossy network allows, by a depth-first search over the
//! reachable states that forks the machines at each choice:
//!
//! * deliver the head of any link (links are per-direction FIFO, as the
//!   protocol assumes);
//! * drop the head, or duplicate it — once each per path;
//! * fire a retransmission timer. When nothing is in flight any armed
//!   timer may fire, as long as no other armed timer has fired fewer
//!   times for its packet (timers run at the same rate; a backed-off
//!   one does not overtake a fresh one). Once per path, a timer may
//!   also fire *early*, while packets are still in flight;
//! * in the eviction scope, evict worker 1 once while the shard waits
//!   on it (`DegradedMode::DropWorker`: the survivors complete without
//!   it; its later packets are zombies).
//!
//! Scope: fusion {1, 2} × every pair of bitmaps over 1..=3 blocks, with
//! one drop, one duplicate and one early timer per path; the eviction
//! scope takes one drop and the eviction over 1..=2 blocks.
//!
//! Checked: every path terminates — a state that recurs on its own path
//! is a livelock — with every surviving worker done; no surviving worker
//! gives up while drops and early fires stay below `max_retransmits`;
//! a worker's data is folded into a phase at most once; and without an
//! eviction every worker ends with exactly the sum of the blocks it had
//! to send, and each stream's sequence of completed rows `(col, block,
//! next)` equals what Algorithm 1's `SlotTable::complete_row` produces
//! for the same bitmaps.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Duration;

use omnireduce_core::config::OmniConfig;
use omnireduce_core::layout::StreamLayout;
use omnireduce_core::protocol::{
    ColEntry, Completion, Contribution, Expiry, PhaseTable, Reply, Row, SlotTable, WorkerPhases,
    WorkerRound,
};
use omnireduce_tensor::{BlockIdx, NonZeroBitmap};

const WORKERS: usize = 2;
const MAX_BLOCKS: usize = 3;
/// Above one drop plus one early fire: a surviving worker that gives up
/// has been starved by the protocol, not by the network.
const MAX_RETRANSMITS: u32 = 3;

/// Nondeterministic steps each path may still take.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Budget {
    drops: u8,
    dups: u8,
    early_timers: u8,
    evictions: u8,
}

struct Scenario {
    cfg: OmniConfig,
    layout: StreamLayout,
    bitmaps: Vec<NonZeroBitmap>,
    budget: Budget,
    /// Algorithm 1's rows per stream, in completion order.
    reference: Vec<Vec<Vec<ColEntry>>>,
    /// Per block: the workers that must send it as data.
    expected: [u8; MAX_BLOCKS],
}

impl Scenario {
    fn new(nblocks: usize, fusion: usize, bits: usize, budget: Budget) -> Scenario {
        let cfg = OmniConfig::new(WORKERS, nblocks)
            .with_block_size(1)
            .with_fusion(fusion)
            .with_streams(1)
            .with_fixed_rto(Duration::from_millis(1))
            .with_max_retransmits(MAX_RETRANSMITS);
        let layout = StreamLayout::new(
            cfg.block_spec(),
            cfg.fusion,
            cfg.total_streams(),
            cfg.tensor_len,
        );
        let bitmaps: Vec<NonZeroBitmap> = (0..WORKERS)
            .map(|w| {
                let mut bm = NonZeroBitmap::empty(nblocks);
                for b in 0..nblocks {
                    if bits >> (w * nblocks + b) & 1 == 1 {
                        bm.set(b as BlockIdx);
                    }
                }
                bm
            })
            .collect();
        let mut expected = [0u8; MAX_BLOCKS];
        for (b, mask) in expected.iter_mut().enumerate().take(nblocks) {
            let b = b as BlockIdx;
            let first_row = layout.first_block(layout.stream_of(b), layout.column_of(b)) == Some(b);
            for (w, bm) in bitmaps.iter().enumerate() {
                if first_row || bm.is_set(b) {
                    *mask |= 1 << w;
                }
            }
        }
        Scenario {
            reference: algorithm1_rows(layout, &bitmaps),
            cfg,
            layout,
            bitmaps,
            budget,
            expected,
        }
    }
}

/// Every row Algorithm 1 completes, per stream, delivering in one FIFO
/// order (its rows do not depend on the order — `protocol_exhaustive`).
fn algorithm1_rows(layout: StreamLayout, bitmaps: &[NonZeroBitmap]) -> Vec<Vec<Vec<ColEntry>>> {
    let mut workers: Vec<WorkerRound> = (0..WORKERS)
        .map(|_| WorkerRound::new(layout, true))
        .collect();
    let mut table = SlotTable::new(layout, 0..layout.total_streams(), WORKERS);
    let mut rows = vec![Vec::new(); layout.total_streams()];
    let mut queue = VecDeque::new();
    for (w, round) in workers.iter_mut().enumerate() {
        for g in layout.active_streams() {
            let mut sends = Vec::new();
            round.open_stream(&bitmaps[w], g, |e| sends.push(e));
            queue.push_back((w, g, sends));
        }
    }
    while let Some((w, g, sends)) = queue.pop_front() {
        for s in &sends {
            table.announce(g, s.col, w, s.next);
        }
        let mut row = Vec::new();
        if table.complete_row(g, &mut row) == Row::Pending {
            continue;
        }
        for (dst, round) in workers.iter_mut().enumerate() {
            let sends: Vec<ColEntry> = row
                .iter()
                .filter_map(|r| round.on_result(&bitmaps[dst], g, r.col, r.next))
                .collect();
            if !sends.is_empty() {
                queue.push_back((dst, g, sends));
            }
        }
        rows[g].push(row);
    }
    rows
}

/// A worker packet: one phase's data and acks.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Data {
    stream: usize,
    ver: u8,
    entries: Vec<Reply>,
}

/// A shard packet. Result entries carry the set of workers whose data
/// was reduced into the block (0: an all-ack entry, no payload).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Down {
    Result {
        stream: usize,
        ver: u8,
        entries: Vec<(ColEntry, u8)>,
    },
    Nack {
        stream: usize,
        ver: u8,
    },
}

type Retained = [Option<Vec<(ColEntry, u8)>>; 2];

#[derive(Clone, PartialEq, Eq, Hash)]
struct World {
    workers: Vec<WorkerPhases>,
    /// Outstanding packet per (worker, stream), resent verbatim.
    sent: Vec<Vec<Option<Data>>>,
    gave_up: [bool; WORKERS],
    /// Per worker and block: the contributor set of the result it copied.
    output: [[u8; MAX_BLOCKS]; WORKERS],
    table: PhaseTable,
    /// Per stream, version and column: the workers whose data is folded.
    acc: Vec<[Vec<u8>; 2]>,
    /// Per stream and version: the retained result.
    retained: Vec<Retained>,
    up: [VecDeque<Data>; WORKERS],
    down: [VecDeque<Down>; WORKERS],
    /// Rows completed per stream, checked against the reference (not
    /// counted once an eviction happened: degraded rows may differ).
    rows: Vec<usize>,
    evicted: bool,
    budget: Budget,
}

impl World {
    fn start(sc: &Scenario) -> World {
        let streams = sc.layout.total_streams();
        let mut world = World {
            workers: (0..WORKERS)
                .map(|w| WorkerPhases::new(&sc.cfg, w))
                .collect(),
            sent: vec![vec![None; streams]; WORKERS],
            gave_up: [false; WORKERS],
            output: [[0; MAX_BLOCKS]; WORKERS],
            table: PhaseTable::new(sc.layout, 0..streams, WORKERS),
            acc: vec![[vec![0; sc.layout.width()], vec![0; sc.layout.width()]]; streams],
            retained: vec![[None, None]; streams],
            up: Default::default(),
            down: Default::default(),
            rows: vec![0; streams],
            evicted: false,
            budget: sc.budget,
        };
        for w in 0..WORKERS {
            world.workers[w].begin_round();
            for g in sc.layout.active_streams() {
                let mut entries = Vec::new();
                world.workers[w].open_stream(&sc.bitmaps[w], g, |e| entries.push(Reply::Data(e)));
                world.send(w, g, entries);
            }
        }
        world
    }

    fn send(&mut self, w: usize, stream: usize, entries: Vec<Reply>) {
        let data = Data {
            stream,
            ver: self.workers[w].ver(stream),
            entries,
        };
        self.workers[w].sent(stream, 0);
        self.sent[w][stream] = Some(data.clone());
        self.up[w].push_back(data);
    }

    fn resend(&mut self, w: usize, stream: usize) {
        let data = self.sent[w][stream].clone().expect("outstanding packet");
        self.up[w].push_back(data);
    }

    /// The shard receives worker `w`'s packet.
    fn deliver_up(&mut self, sc: &Scenario, w: usize, data: Data) {
        let (g, ver) = (data.stream, data.ver);
        let v = (ver & 1) as usize;
        match self.table.on_data(w, g, ver, 0, 0) {
            Contribution::Zombie | Contribution::StaleEpoch => {}
            Contribution::Resend => {
                let entries = self.retained[g][v].clone().expect("retained result");
                self.down[w].push_back(Down::Result {
                    stream: g,
                    ver,
                    entries,
                });
            }
            Contribution::Stalled => {
                let missing: Vec<usize> = self.table.missing(g, ver).collect();
                assert!(!missing.contains(&w), "NACK to a worker already folded");
                for m in missing {
                    self.down[m].push_back(Down::Nack { stream: g, ver });
                }
            }
            Contribution::Fresh { opened } => {
                if opened {
                    self.acc[g][v].fill(0);
                    self.retained[g][v] = None;
                }
                for r in data.entries {
                    self.table.fold(g, ver, r);
                    if let Reply::Data(e) = r {
                        let acc = &mut self.acc[g][v][e.col];
                        assert_eq!(
                            *acc & 1 << w,
                            0,
                            "worker {w}'s block {} folded twice",
                            e.block
                        );
                        *acc |= 1 << w;
                    }
                }
                self.complete(sc, g, v);
            }
        }
    }

    fn complete(&mut self, sc: &Scenario, g: usize, v: usize) {
        let mut row = Vec::new();
        match self.table.complete(g, v as u8, &mut row) {
            Completion::Pending => return,
            Completion::Complete if !self.evicted => {
                let k = self.rows[g];
                assert_eq!(
                    Some(&row),
                    sc.reference[g].get(k),
                    "stream {g} row {k} differs from Algorithm 1"
                );
                self.rows[g] += 1;
            }
            _ => {}
        }
        let entries: Vec<(ColEntry, u8)> =
            row.iter().map(|e| (*e, self.acc[g][v][e.col])).collect();
        self.retained[g][v] = Some(entries.clone());
        for m in (0..WORKERS).filter(|&m| self.table.is_member(m)) {
            self.down[m].push_back(Down::Result {
                stream: g,
                ver: v as u8,
                entries: entries.clone(),
            });
        }
    }

    /// Worker `w` receives the shard's packet.
    fn deliver_down(&mut self, sc: &Scenario, w: usize, msg: Down) {
        if self.gave_up[w] {
            return;
        }
        let (g, ver, entries) = match msg {
            Down::Nack { stream, ver } => {
                if self.workers[w].on_nack(stream, ver) {
                    self.resend(w, stream);
                }
                return;
            }
            Down::Result {
                stream,
                ver,
                entries,
            } => (stream, ver, entries),
        };
        if !self.workers[w].on_result(g, ver, 0) {
            return;
        }
        self.sent[w][g] = None;
        let mut reply = Vec::new();
        for (e, contributors) in entries {
            if contributors != 0 {
                self.output[w][e.block as usize] = contributors;
            }
            reply.extend(self.workers[w].reply(&sc.bitmaps[w], g, e.col, e.next));
        }
        if self.workers[w].stream_done(g) {
            assert!(reply.is_empty(), "reply on a finished stream");
        } else {
            self.send(w, g, reply);
        }
    }

    fn fire(&mut self, w: usize, g: usize) {
        match self.workers[w].on_timer(g, 0) {
            Expiry::Resend { .. } => self.resend(w, g),
            Expiry::GiveUp { retransmits, .. } => {
                assert!(
                    !self.table.is_member(w),
                    "surviving worker {w} gave up on stream {g} after {retransmits} resends"
                );
                self.gave_up[w] = true;
            }
            other => panic!("unexpected timer outcome {other:?}"),
        }
    }

    fn quiescent(&self) -> bool {
        self.up.iter().all(VecDeque::is_empty) && self.down.iter().all(VecDeque::is_empty)
    }

    /// Every state one step away.
    fn successors(&self, sc: &Scenario) -> Vec<World> {
        let mut out = Vec::new();
        let b = self.budget;
        for w in 0..WORKERS {
            if let Some(head) = self.up[w].front() {
                let mut next = self.clone();
                let data = next.up[w].pop_front().unwrap();
                next.deliver_up(sc, w, data);
                out.push(next);
                if b.drops > 0 {
                    let mut next = self.clone();
                    next.up[w].pop_front();
                    next.budget.drops -= 1;
                    out.push(next);
                }
                if b.dups > 0 {
                    let mut next = self.clone();
                    next.budget.dups -= 1;
                    next.deliver_up(sc, w, head.clone());
                    out.push(next);
                }
            }
            if let Some(head) = self.down[w].front() {
                let mut next = self.clone();
                let msg = next.down[w].pop_front().unwrap();
                next.deliver_down(sc, w, msg);
                out.push(next);
                if b.drops > 0 {
                    let mut next = self.clone();
                    next.down[w].pop_front();
                    next.budget.drops -= 1;
                    out.push(next);
                }
                if b.dups > 0 {
                    let mut next = self.clone();
                    next.budget.dups -= 1;
                    next.deliver_down(sc, w, head.clone());
                    out.push(next);
                }
            }
        }
        let armed: Vec<(usize, usize, u32)> = (0..WORKERS)
            .filter(|&w| !self.gave_up[w])
            .flat_map(|w| {
                (0..sc.layout.total_streams())
                    .filter_map(move |g| self.workers[w].outstanding(g).map(|r| (w, g, r)))
            })
            .collect();
        let quiescent = self.quiescent();
        let fewest = armed.iter().map(|a| a.2).min();
        for &(w, g, retx) in &armed {
            if quiescent && Some(retx) == fewest {
                let mut next = self.clone();
                next.fire(w, g);
                out.push(next);
            } else if !quiescent && b.early_timers > 0 {
                let mut next = self.clone();
                next.budget.early_timers -= 1;
                next.fire(w, g);
                out.push(next);
            }
        }
        if b.evictions > 0 && self.table.is_member(1) && self.table.waiting_on(1) {
            let mut next = self.clone();
            next.budget.evictions -= 1;
            next.evicted = true;
            next.table.evict(1);
            for g in 0..sc.layout.total_streams() {
                next.complete(sc, g, 0);
                next.complete(sc, g, 1);
            }
            out.push(next);
        }
        out
    }

    /// A state with no successor: the round must be over.
    fn assert_terminal(&self, sc: &Scenario) {
        for w in (0..WORKERS).filter(|&w| self.table.is_member(w)) {
            assert!(
                self.workers[w].round_done() && !self.gave_up[w],
                "surviving worker {w} stuck"
            );
            if !self.evicted {
                let nblocks = sc.layout.nblocks();
                assert_eq!(
                    self.output[w][..nblocks],
                    sc.expected[..nblocks],
                    "worker {w}'s sums"
                );
            }
        }
        if !self.evicted {
            assert!(self.table.fully_idle(), "a phase is still open");
            for (g, rows) in sc.reference.iter().enumerate() {
                assert_eq!(self.rows[g], rows.len(), "stream {g} is missing rows");
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mark {
    OnPath,
    Done,
}

/// A state's 64-bit fingerprint: the search remembers these instead of
/// whole states (hash compaction — a collision could hide a state, at
/// odds of about n²/2⁶⁴ for n states).
fn fingerprint(world: &World) -> u64 {
    let mut h = DefaultHasher::new();
    world.hash(&mut h);
    h.finish()
}

/// Explores every schedule of `sc`; returns the number of states.
fn explore(sc: &Scenario) -> usize {
    let mut marks: HashMap<u64, Mark> = HashMap::new();
    let start = World::start(sc);
    let fp = fingerprint(&start);
    marks.insert(fp, Mark::OnPath);
    let mut path: Vec<(u64, Vec<World>)> = vec![(fp, start.successors(sc))];
    while let Some((fp, succs)) = path.last_mut() {
        let Some(next) = succs.pop() else {
            marks.insert(*fp, Mark::Done);
            path.pop();
            continue;
        };
        let fp = fingerprint(&next);
        match marks.entry(fp) {
            Entry::Occupied(e) => assert!(
                *e.get() == Mark::Done,
                "livelock: a state recurs on its own path ({} steps deep)",
                path.len()
            ),
            Entry::Vacant(e) => {
                e.insert(Mark::OnPath);
                let succs = next.successors(sc);
                if succs.is_empty() {
                    next.assert_terminal(sc);
                }
                path.push((fp, succs));
            }
        }
    }
    marks.len()
}

/// Explores every bitmap pair over 1..=`max_blocks` blocks on fusion
/// {1, 2}. Without an eviction the two workers are interchangeable, so
/// a pair and its mirror image span the same state space up to renaming
/// and only one of them is explored.
fn sweep(max_blocks: usize, budget: Budget) -> usize {
    let mut states = 0;
    for fusion in [1, 2] {
        for nblocks in 1..=max_blocks {
            let mask = (1usize << nblocks) - 1;
            for bits in 0..1usize << (WORKERS * nblocks) {
                let mirrored = bits & mask > bits >> nblocks;
                if budget.evictions == 0 && mirrored {
                    continue;
                }
                states += explore(&Scenario::new(nblocks, fusion, bits, budget));
            }
        }
    }
    states
}

const NONE: Budget = Budget {
    drops: 0,
    dups: 0,
    early_timers: 0,
    evictions: 0,
};

/// Every schedule with one drop and one duplicate.
#[test]
fn every_schedule_with_a_drop_and_a_duplicate() {
    let budget = Budget {
        drops: 1,
        dups: 1,
        ..NONE
    };
    assert!(sweep(MAX_BLOCKS, budget) > 0);
}

/// Every schedule with one drop and one timer firing early.
#[test]
fn every_schedule_with_a_drop_and_an_early_timer() {
    let budget = Budget {
        drops: 1,
        early_timers: 1,
        ..NONE
    };
    assert!(sweep(MAX_BLOCKS, budget) > 0);
}

/// Every schedule with one drop and worker 1 evicted at any point the
/// shard waits on it: the survivor still finishes.
#[test]
fn every_eviction_schedule_lets_the_survivor_finish() {
    let budget = Budget {
        drops: 1,
        evictions: 1,
        ..NONE
    };
    assert!(sweep(MAX_BLOCKS, budget) > 0);
}

/// All four at once — a drop, a duplicate, an early timer and the
/// eviction on the same path: 1.2 M states, half a minute in a release
/// build. Run with `cargo test --release -p omnireduce-core --test
/// recovery_exhaustive -- --ignored`.
#[test]
#[ignore = "1.2 M states: half a minute in release; Tier-1 takes the faults two at a time"]
fn every_schedule_with_every_fault_at_once() {
    let budget = Budget {
        drops: 1,
        dups: 1,
        early_timers: 1,
        evictions: 1,
    };
    assert!(sweep(MAX_BLOCKS, budget) > 0);
}

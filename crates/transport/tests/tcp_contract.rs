//! The contract of [`TcpTransport`], one test per line of it (DESIGN
//! "Socket transports: the readiness loop"), plus one of the two bugs
//! the reader-thread implementation had: hostile bytes reaching an
//! allocation and an `assert!`. The other, leaked threads and sockets,
//! is checked by `tcp_no_leaks.rs`, a binary of its own.
//!
//! Everything runs on loopback. Tests that play a misbehaving peer do it
//! with a raw `TcpStream` posing as the mesh's highest node id, which
//! only dials and so needs no listener.

use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use omnireduce_transport::codec;
use omnireduce_transport::tcp::{TcpTransport, MAX_FRAME_BYTES};
use omnireduce_transport::{
    Entry, KvPacket, Message, NodeId, Packet, PacketKind, TcpNetwork, Transport, TransportError,
};

/// Ports no other test in the repository uses (the unit tests take
/// 21000+, the example 23500+, the leak test 25000+, UDP 26000+ and
/// 28100+), below the range the kernel hands out to outgoing
/// connections.
static NEXT_PORT: AtomicU16 = AtomicU16::new(24_000);

/// One test at a time: the timing tests want the two cores to
/// themselves.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn addrs(n: usize) -> Vec<SocketAddr> {
    (0..n)
        .map(|_| {
            SocketAddr::new(
                IpAddr::V4(Ipv4Addr::LOCALHOST),
                NEXT_PORT.fetch_add(1, Ordering::SeqCst),
            )
        })
        .collect()
}

/// Node `i`'s `establish`, on a thread of its own as it must be.
fn establish_on_thread(i: usize, a: &[SocketAddr]) -> thread::JoinHandle<TcpTransport> {
    let a = a.to_vec();
    thread::spawn(move || TcpNetwork::establish(NodeId(i as u16), &a).unwrap())
}

fn mesh(n: usize) -> Vec<TcpTransport> {
    let a = addrs(n);
    let handles: Vec<_> = (0..n).map(|i| establish_on_thread(i, &a)).collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// A mesh of `real` endpoints and one raw socket per endpoint posing as
/// node `real`: `(endpoints, raw)`, `raw[i]` connected to endpoint `i`.
fn mesh_with_raw_peer(real: usize) -> (Vec<TcpTransport>, Vec<TcpStream>) {
    let a = addrs(real + 1);
    let handles: Vec<_> = (0..real).map(|i| establish_on_thread(i, &a)).collect();
    let raw = (0..real).map(|i| dial_as(a[i], real as u16)).collect();
    (
        handles.into_iter().map(|h| h.join().unwrap()).collect(),
        raw,
    )
}

/// Connects to a node that is (or soon will be) listening on `addr` and
/// introduces itself as node `id`.
fn dial_as(addr: SocketAddr, id: u16) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(mut s) => {
                s.set_nodelay(true).unwrap();
                s.write_all(&id.to_le_bytes()).unwrap();
                return s;
            }
            Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("connect {addr}: {e}"),
        }
    }
}

fn start(seq: u64) -> Message {
    Message::Start { seq }
}

/// `[len][frame]` as the wire carries it.
fn framed(msg: &Message) -> Vec<u8> {
    let frame = codec::encode(msg);
    let mut out = (frame.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&frame);
    out
}

/// A block message of `values` floats in one entry.
fn block(slot: u16, values: usize) -> Message {
    Message::Block(Packet {
        kind: PacketKind::Data,
        ver: 0,
        slot,
        stream: 0,
        wid: 0,
        epoch: 0,
        entries: vec![Entry::data(0, 1, (0..values).map(|i| i as f32).collect())],
    })
}

/// A key-value message that encodes to 16 + 8 × `pairs` bytes.
fn kv(pairs: usize) -> Message {
    Message::Kv(KvPacket {
        kind: PacketKind::Data,
        wid: 0,
        keys: (0..pairs as u32).collect(),
        values: (0..pairs).map(|i| i as f32).collect(),
        nextkey: 7,
    })
}

/// Leaves `k - 1` decoded messages queued on `to`: `from` sends `k`
/// (written through, so all are in `to`'s socket when the last `send`
/// returns) and `to` receives the first, which reads and decodes all of
/// them. Sends from `to` are deferred from here until the queue is empty.
fn queue_input(from: &TcpTransport, to: &TcpTransport, k: u64) {
    for seq in 0..k {
        from.send(to.local_id(), &start(1000 + seq)).unwrap();
    }
    assert_eq!(to.recv().unwrap().1, start(1000));
}

/// Receives the `k - 1` messages [`queue_input`] left queued.
fn drain_input(to: &TcpTransport, k: u64) {
    for seq in 1..k {
        assert_eq!(to.recv().unwrap().1, start(1000 + seq));
    }
}

const QUIET: Duration = Duration::from_millis(30);

// ---------------------------------------------------------------------
// Hostile bytes
// ---------------------------------------------------------------------

/// A prefix above `MAX_FRAME_BYTES` severs that connection as soon as the
/// four bytes are in — nothing waits, or allocates, for the length they
/// claim — and the good peer is undisturbed.
#[test]
fn oversized_prefix_severs_only_that_connection() {
    let _serial = serial();
    let (eps, mut raw) = mesh_with_raw_peer(2);
    let (a, b) = (&eps[0], &eps[1]);
    for claim in [u32::MAX, MAX_FRAME_BYTES as u32 + 1] {
        let target = if claim == u32::MAX { a } else { b };
        let i = target.local_id().index();
        raw[i].write_all(&claim.to_le_bytes()).unwrap();
        // The hostile peer's socket is closed under it.
        raw[i]
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(target.recv_timeout(QUIET).unwrap(), None);
        assert!(matches!(raw[i].read(&mut [0u8; 1]), Ok(0)));
        assert!(matches!(
            target.send(NodeId(2), &start(1)),
            Err(TransportError::Disconnected)
        ));
    }
    a.send(NodeId(1), &block(3, 300)).unwrap();
    assert_eq!(b.recv().unwrap(), (NodeId(0), block(3, 300)));
    b.send(NodeId(0), &start(9)).unwrap();
    assert_eq!(a.recv().unwrap(), (NodeId(1), start(9)));
}

/// A frame the codec rejects severs that connection; frames decoded
/// before it are delivered, and the good peer is undisturbed.
#[test]
fn undecodable_frame_severs_only_that_connection() {
    let _serial = serial();
    let (eps, mut raw) = mesh_with_raw_peer(2);
    let (a, b) = (&eps[0], &eps[1]);
    let mut bytes = framed(&start(5));
    bytes.extend_from_slice(&3u32.to_le_bytes());
    bytes.extend_from_slice(&[99, 0, 0]); // no such discriminant
    bytes.extend_from_slice(&framed(&start(6))); // never looked at
    raw[0].write_all(&bytes).unwrap();
    assert_eq!(a.recv().unwrap(), (NodeId(2), start(5)));
    assert_eq!(a.recv_timeout(QUIET).unwrap(), None);
    assert!(matches!(
        a.send(NodeId(2), &start(1)),
        Err(TransportError::Disconnected)
    ));
    a.send(NodeId(1), &start(7)).unwrap();
    assert_eq!(b.recv().unwrap(), (NodeId(0), start(7)));
    // The raw peer's other connection is a good one still.
    raw[1].write_all(&framed(&start(8))).unwrap();
    assert_eq!(b.recv().unwrap(), (NodeId(2), start(8)));
}

/// A stray connection — hello out of range, not a node that dials this
/// one, already connected, or none at all — is closed and `establish`
/// goes on waiting for the real peers. The parent panicked on the first.
#[test]
fn bad_hello_is_closed_and_accept_continues() {
    let _serial = serial();
    let a = addrs(3);
    let node0 = establish_on_thread(0, &a);
    let closed = |mut s: TcpStream| {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        match s.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            other => panic!("stray connection not closed: {other:?}"),
        }
    };
    closed(dial_as(a[0], 9)); // out of range
    closed(dial_as(a[0], 0)); // node 0 dials nobody, least of all itself
    drop(TcpStream::connect(a[0]).unwrap()); // leaves without a word
    let mut raw0 = dial_as(a[0], 2);
    closed(dial_as(a[0], 2)); // node 2 is connected already
    let node1 = establish_on_thread(1, &a);
    let mut raw1 = dial_as(a[1], 2);
    let (n0, n1) = (node0.join().unwrap(), node1.join().unwrap());

    n0.send(NodeId(1), &start(1)).unwrap();
    assert_eq!(n1.recv().unwrap(), (NodeId(0), start(1)));
    raw0.write_all(&framed(&start(2))).unwrap();
    assert_eq!(n0.recv().unwrap(), (NodeId(2), start(2)));
    raw1.write_all(&framed(&start(3))).unwrap();
    assert_eq!(n1.recv().unwrap(), (NodeId(2), start(3)));
}

// ---------------------------------------------------------------------
// The contract
// ---------------------------------------------------------------------

/// Per-link FIFO holds across deferred and written-through sends.
#[test]
fn fifo_across_deferred_and_written_through_sends() {
    let _serial = serial();
    let eps = mesh(2);
    let (a, b) = (&eps[0], &eps[1]);
    a.send(NodeId(1), &start(0)).unwrap(); // written through
    queue_input(b, a, 3);
    a.send(NodeId(1), &start(1)).unwrap(); // deferred: two queued
    a.send(NodeId(1), &block(2, 500)).unwrap();
    assert_eq!(a.recv().unwrap().1, start(1001));
    a.send(NodeId(1), &start(3)).unwrap(); // deferred: one queued
    assert_eq!(a.recv().unwrap().1, start(1002));
    a.send(NodeId(1), &start(4)).unwrap(); // written through, after 1..3
    for want in [start(0), start(1), block(2, 500), start(3), start(4)] {
        assert_eq!(b.recv().unwrap(), (NodeId(0), want));
    }
}

/// A `send` with no decoded input waiting is on the peer's socket when it
/// returns: one thread can send on one endpoint and receive on the other.
#[test]
fn send_without_queued_input_is_written_through() {
    let _serial = serial();
    let eps = mesh(2);
    let (a, b) = (&eps[0], &eps[1]);
    for seq in 0..100 {
        a.send(NodeId(1), &start(seq)).unwrap();
        assert_eq!(b.recv().unwrap(), (NodeId(0), start(seq)));
        b.send(NodeId(0), &block(seq as u16, 64)).unwrap();
        assert_eq!(a.recv().unwrap(), (NodeId(1), block(seq as u16, 64)));
    }
}

/// Output deferred behind queued input is written by the next receive
/// that would block.
#[test]
fn deferred_output_is_written_before_a_receive_blocks() {
    let _serial = serial();
    let eps = mesh(2);
    let (a, b) = (&eps[0], &eps[1]);
    queue_input(b, a, 2);
    a.send(NodeId(1), &start(1)).unwrap();
    // Deferred for real: nothing reaches `b` while `a` has input queued.
    assert_eq!(b.recv_timeout(QUIET).unwrap(), None);
    drain_input(a, 2);
    assert_eq!(b.recv_timeout(QUIET).unwrap(), None);
    // This receive finds nothing queued: it writes, then waits.
    assert_eq!(a.recv_timeout(Duration::from_millis(1)).unwrap(), None);
    assert_eq!(b.recv().unwrap(), (NodeId(0), start(1)));
}

/// ... or by `flush()`.
#[test]
fn deferred_output_is_written_by_flush() {
    let _serial = serial();
    let eps = mesh(2);
    let (a, b) = (&eps[0], &eps[1]);
    queue_input(b, a, 2);
    a.send(NodeId(1), &start(1)).unwrap();
    assert_eq!(b.recv_timeout(QUIET).unwrap(), None);
    a.flush().unwrap();
    assert_eq!(b.recv().unwrap(), (NodeId(0), start(1)));
    drain_input(a, 2);
}

/// ... or at the high-water mark: deferral holds a bounded amount.
#[test]
fn deferred_output_is_written_at_the_high_water_mark() {
    let _serial = serial();
    let eps = mesh(2);
    let (a, b) = (&eps[0], &eps[1]);
    queue_input(b, a, 2);
    // 64 KiB a frame: the fourth takes the buffer past 256 KiB.
    for slot in 0..3 {
        a.send(NodeId(1), &block(slot, 16_384)).unwrap();
    }
    assert_eq!(b.recv_timeout(QUIET).unwrap(), None);
    a.send(NodeId(1), &block(3, 16_384)).unwrap();
    for slot in 0..4 {
        assert_eq!(b.recv().unwrap(), (NodeId(0), block(slot, 16_384)));
    }
    drain_input(a, 2);
}

/// ... or on drop. Graceful close: every frame sent before the drop (the
/// `Shutdown` goodbye last) is read by the peer, then end of stream.
#[test]
fn drop_delivers_everything_sent_then_eof() {
    let _serial = serial();
    let mut eps = mesh(2);
    let b = eps.pop().unwrap();
    let a = eps.pop().unwrap();
    queue_input(&b, &a, 2);
    for seq in 0..50 {
        a.send(NodeId(1), &block(seq, 1024)).unwrap(); // deferred
    }
    a.send(NodeId(1), &Message::Shutdown).unwrap();
    assert_eq!(b.recv_timeout(QUIET).unwrap(), None);
    drop(a);
    for seq in 0..50 {
        assert_eq!(b.recv().unwrap(), (NodeId(0), block(seq, 1024)));
    }
    assert_eq!(b.recv().unwrap(), (NodeId(0), Message::Shutdown));
    assert!(matches!(b.recv(), Err(TransportError::Disconnected)));
    assert!(matches!(
        b.recv_timeout(QUIET),
        Err(TransportError::Disconnected)
    ));
}

/// Back-pressure cannot wedge: each side sends 8 MiB — twice what the
/// kernel will hold for a peer that is not reading — before it receives
/// anything. A `send` waiting for socket space keeps absorbing input,
/// which is what the reader threads used to guarantee.
#[test]
fn back_pressure_cannot_wedge() {
    let _serial = serial();
    const FRAMES: u16 = 128; // × 64 KiB
    let mut eps = mesh(2);
    let b = eps.pop().unwrap();
    let a = eps.pop().unwrap();
    let run = |me: TcpTransport, other: u16| {
        thread::spawn(move || {
            for slot in 0..FRAMES {
                me.send(NodeId(other), &block(slot, 16_384)).unwrap();
            }
            for slot in 0..FRAMES {
                assert_eq!(me.recv().unwrap(), (NodeId(other), block(slot, 16_384)));
            }
        })
    };
    let (ha, hb) = (run(a, 1), run(b, 0));
    let deadline = Instant::now() + Duration::from_secs(60);
    while !(ha.is_finished() && hb.is_finished()) {
        assert!(Instant::now() < deadline, "wedged on full socket buffers");
        thread::sleep(Duration::from_millis(10));
    }
    ha.join().unwrap();
    hb.join().unwrap();
}

/// On-CPU nanoseconds of the calling thread so far.
fn thread_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap();
    stat.split_whitespace().next().unwrap().parse().unwrap()
}

/// Peer isolation: one endpoint of three drops mid-traffic and the other
/// two carry on.
#[test]
fn a_dropped_peer_disturbs_nobody_else() {
    let _serial = serial();
    let mut eps = mesh(3);
    let c = eps.pop().unwrap();
    let (a, b) = (&eps[0], &eps[1]);
    c.send(NodeId(0), &start(1)).unwrap();
    a.send(NodeId(2), &start(2)).unwrap();
    assert_eq!(c.recv().unwrap(), (NodeId(0), start(2)));
    b.send(NodeId(2), &block(0, 2048)).unwrap(); // never read: `a` and `b` see a reset
    drop(c);

    // What `c` sent before it left is delivered; the hang-up itself is
    // not an error of `a`'s.
    assert_eq!(a.recv().unwrap(), (NodeId(2), start(1)));
    // Once the loop has seen the hang-up, `send` says so (before that the
    // kernel still takes the bytes, as it would on a real network).
    let deadline = Instant::now() + Duration::from_secs(5);
    while a.send(NodeId(2), &start(3)).is_ok() {
        assert!(Instant::now() < deadline, "hang-up never noticed");
        assert_eq!(a.recv_timeout(Duration::from_millis(1)).unwrap(), None);
    }
    assert!(matches!(
        a.send(NodeId(2), &start(3)),
        Err(TransportError::Disconnected)
    ));

    // A write that fails on the dead link never surfaces from a receive
    // of the live one's traffic.
    queue_input(a, b, 3);
    let _ = b.send(NodeId(2), &start(4)); // deferred, or refused already
    drain_input(b, 3);
    assert_eq!(b.recv_timeout(QUIET).unwrap(), None);
    a.send(NodeId(1), &start(5)).unwrap();
    assert_eq!(b.recv().unwrap(), (NodeId(0), start(5)));
    b.send(NodeId(0), &start(6)).unwrap();
    assert_eq!(a.recv().unwrap(), (NodeId(1), start(6)));

    // The closed peer left the poll set: an idle wait sleeps, it does
    // not spin on the hang-up.
    let cpu0 = thread_cpu_ns();
    assert_eq!(a.recv_timeout(Duration::from_millis(200)).unwrap(), None);
    let spent = Duration::from_nanos(thread_cpu_ns() - cpu0);
    assert!(spent < Duration::from_millis(50), "spun for {spent:?}");

    // `Disconnected` only when every peer is closed and nothing is left.
    b.send(NodeId(0), &start(7)).unwrap();
    drop(eps.pop()); // b
    let a = &eps[0];
    assert_eq!(a.recv().unwrap(), (NodeId(1), start(7)));
    assert!(matches!(a.recv(), Err(TransportError::Disconnected)));
}

/// `recv_timeout(d)` on an idle endpoint returns no earlier than `d` and
/// soon after: `ppoll`'s `timespec`, not a spin, not a millisecond tick.
#[test]
fn recv_timeout_is_neither_early_nor_late() {
    let _serial = serial();
    let eps = mesh(2);
    for d in [Duration::from_micros(200), Duration::from_millis(20)] {
        let cpu0 = thread_cpu_ns();
        let mut took: Vec<Duration> = (0..21)
            .map(|_| {
                let t0 = Instant::now();
                assert_eq!(eps[0].recv_timeout(d).unwrap(), None);
                t0.elapsed()
            })
            .collect();
        let cpu = Duration::from_nanos(thread_cpu_ns() - cpu0);
        took.sort();
        assert!(took[0] >= d, "returned after {:?}, before {d:?}", took[0]);
        // The median, so that one preemption on a busy host is not a
        // failure; the bound itself is the contract's.
        let late = took[took.len() / 2] - d;
        assert!(late <= Duration::from_millis(2), "{d:?}: {late:?} late");
        if d >= Duration::from_millis(20) {
            let wall: Duration = took.iter().sum();
            assert!(cpu < wall / 4, "{cpu:?} on-CPU in {wall:?} of waiting");
        }
    }
    // Nothing to wait for: one look at the sockets, no sleep.
    eps[1].send(NodeId(0), &start(1)).unwrap();
    assert_eq!(
        eps[0].recv_timeout(Duration::ZERO).unwrap(),
        Some((NodeId(1), start(1)))
    );
    assert_eq!(eps[0].recv_timeout(Duration::ZERO).unwrap(), None);
}

/// Self-send loops back without touching a socket: a mesh of one has
/// none.
#[test]
fn self_send_loops_back() {
    let _serial = serial();
    let a = TcpNetwork::establish(NodeId(0), &addrs(1)).unwrap();
    a.send(NodeId(0), &Message::Shutdown).unwrap();
    a.send(NodeId(0), &block(1, 10)).unwrap();
    assert_eq!(a.recv().unwrap(), (NodeId(0), Message::Shutdown));
    assert_eq!(
        a.recv_timeout(QUIET).unwrap(),
        Some((NodeId(0), block(1, 10)))
    );
    assert!(matches!(
        a.send(NodeId(1), &start(0)),
        Err(TransportError::UnknownPeer(NodeId(1)))
    ));
}

/// Frame reassembly no longer rides on `read_exact`: a frame that arrives
/// a byte at a time is one message, and so are the two behind it that
/// arrive glued together.
#[test]
fn trickled_frame_reassembles() {
    let _serial = serial();
    let (eps, mut raw) = mesh_with_raw_peer(1);
    let a = &eps[0];
    let bytes = framed(&block(7, 33));
    let (last, head) = bytes.split_last().unwrap();
    for (i, byte) in head.iter().enumerate() {
        raw[0].write_all(&[*byte]).unwrap();
        if i % 8 == 0 {
            // Let the endpoint see the partial frame now and then.
            assert_eq!(a.recv_timeout(Duration::ZERO).unwrap(), None);
        }
    }
    raw[0].write_all(&[*last]).unwrap();
    let mut glued = framed(&start(1));
    glued.extend_from_slice(&framed(&Message::Shutdown));
    raw[0].write_all(&glued).unwrap();
    assert_eq!(a.recv().unwrap(), (NodeId(1), block(7, 33)));
    assert_eq!(a.recv().unwrap(), (NodeId(1), start(1)));
    assert_eq!(a.recv().unwrap(), (NodeId(1), Message::Shutdown));
}

/// A 1 MiB frame straddles many 64 KiB reads, in both directions at
/// once, with small frames before and after it.
#[test]
fn megabyte_frame_straddles_many_reads() {
    let _serial = serial();
    let big = kv(131_072);
    assert_eq!(codec::encoded_len(&big), (1 << 20) + 16);
    let mut eps = mesh(2);
    let b = eps.pop().unwrap();
    let a = eps.pop().unwrap();
    let run = |me: TcpTransport, other: u16, big: Message| {
        thread::spawn(move || {
            for msg in [&start(1), &big, &start(2), &big] {
                me.send(NodeId(other), msg).unwrap();
            }
            for want in [&start(1), &big, &start(2), &big] {
                assert_eq!(me.recv().unwrap(), (NodeId(other), want.clone()));
            }
        })
    };
    let (ha, hb) = (run(a, 1, big.clone()), run(b, 0, big));
    ha.join().unwrap();
    hb.join().unwrap();
}

/// The ceiling holds on the way out too: the peer would sever the
/// connection over such a frame, so `send` refuses it and the link stays
/// usable.
#[test]
fn oversized_send_is_refused() {
    let _serial = serial();
    let eps = mesh(2);
    let too_big = kv(MAX_FRAME_BYTES / 8);
    assert!(codec::encoded_len(&too_big) > MAX_FRAME_BYTES);
    assert!(matches!(
        eps[0].send(NodeId(1), &too_big),
        Err(TransportError::Io(e)) if e.kind() == ErrorKind::InvalidInput
    ));
    eps[0].send(NodeId(1), &start(1)).unwrap();
    assert_eq!(eps[1].recv().unwrap(), (NodeId(0), start(1)));
}

/// Single owner, stated by the type: `Send`, not `Sync`.
#[test]
fn endpoint_is_send_and_not_sync() {
    fn assert_send<T: Send>() {}
    assert_send::<TcpTransport>();

    // Resolves only while exactly one of the two impls applies, that is
    // while `TcpTransport` is not `Sync`.
    trait AmbiguousIfSync<A> {
        fn check() {}
    }
    impl<T: ?Sized> AmbiguousIfSync<()> for T {}
    impl<T: ?Sized + Sync> AmbiguousIfSync<u8> for T {}
    <TcpTransport as AmbiguousIfSync<_>>::check();
}

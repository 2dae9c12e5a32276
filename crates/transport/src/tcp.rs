//! TCP mesh transport: length-prefixed frames over a single-owner
//! readiness loop.
//!
//! Runs the protocol over real sockets so workers and aggregators can live
//! in different threads or processes. Framing follows the classic
//! pattern: each frame is a little-endian `u32` length followed by the
//! codec payload.
//!
//! # The loop
//!
//! The paper's workers and aggregators are poll-mode, run-to-completion
//! loops (§5, Appendix D): the thread that owns the protocol state also
//! pulls packets off the NIC queue. This endpoint has the same shape. It
//! starts no thread. Every peer socket is non-blocking, and one *turn* —
//! write what is pending, `ppoll` every open peer for input (and for
//! output space where a write fell short), read each readable socket into
//! its buffer and decode every complete frame onto the `ready` queue — is
//! driven from inside `recv` / `recv_timeout` by the engine's own thread.
//!
//! # The deferral rule
//!
//! `send` encodes `[len][frame]` straight onto the peer's append-only
//! output buffer. When the endpoint has nothing decoded left to consume
//! (`ready` is empty) the buffer is written through before `send`
//! returns: the frame has reached the peer's socket, so
//! `a.send(b, m); b.recv()` works on one thread. While decoded input is
//! still queued, `send` only appends; the output is written by the next
//! `recv` / `recv_timeout` before it can block, by
//! [`TcpTransport::flush`], when a peer's buffer passes the high-water
//! mark, or on drop — never later. So an engine working through a burst
//! of received packets emits at most one `write` per peer for the whole
//! burst, and since a peer's frames leave through one buffer in the order
//! they were sent, per-link FIFO holds across deferred and
//! written-through sends alike.
//!
//! A write that must wait for socket space keeps reading input into
//! `ready` while it waits, so two endpoints sending at each other cannot
//! wedge on full socket buffers.
//!
//! # Single owner
//!
//! [`TcpTransport`] is `Send` and not `Sync`: the state is behind a
//! `RefCell`, so the compiler holds every endpoint to one driving thread
//! at a time.
//!
//! # Peers that misbehave or leave
//!
//! A length prefix above [`MAX_FRAME_BYTES`], a frame the codec rejects,
//! end of stream and any socket error each sever *that* connection: the
//! socket is closed and leaves the poll set, undelivered output to it is
//! discarded, `send` to it returns [`TransportError::Disconnected`], and
//! traffic with every other peer goes on. `recv` and `recv_timeout`
//! return `Disconnected` once every peer is gone and `ready` is empty,
//! when nothing can arrive any more.
//!
//! Dropping the endpoint pushes out what is still queued (waiting at most
//! [`CLOSE_WAIT`] for socket space) and closes the sockets; peers read
//! every frame sent before the drop, then end of stream. Closing with
//! unread input makes the kernel answer with a reset instead, which the
//! peer also reads as end of stream after the frames already delivered.
//!
//! # Mesh establishment
//!
//! Every node knows the full address list. Node `i` *initiates*
//! connections to every `j < i` and *accepts* from every `j > i`; the
//! initiator's first two bytes are a hello carrying its node id.
//! Initiators retry with backoff so startup order doesn't matter. An
//! accepted connection whose hello does not arrive, is out of range or
//! names a peer already connected is closed and the accept goes on.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::thread;
use std::time::{Duration, Instant};

use crate::codec::{self, ENTRY_HEADER_BYTES, TAGGED_BLOCK_HEADER_BYTES};
use crate::message::{Message, NodeId};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::{Transport, TransportError};

/// Interval between connection retries while the mesh comes up.
const CONNECT_RETRY: Duration = Duration::from_millis(20);
/// Maximum connection attempts per peer (~10 s).
const CONNECT_ATTEMPTS: usize = 500;
/// How long an accepted connection may take to say who it is. A peer of
/// the mesh writes its hello right after connecting.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a drop waits for socket space to push queued output out.
pub const CLOSE_WAIT: Duration = Duration::from_secs(1);

/// Bytes of the length prefix in front of every frame.
const PREFIX: usize = 4;
/// Initial size of a peer's input buffer, and so of one `read`: a burst
/// of OmniReduce packets (a few KB each) comes in with one system call.
/// The buffer grows only for a frame that does not fit, and only as that
/// frame's bytes arrive.
const READ_BUF: usize = 64 * 1024;
/// A `send` that leaves this much unwritten output queued for one peer
/// writes it out even though decoded input is still waiting, so deferral
/// holds at most this plus one frame per peer.
const OUT_HIGH_WATER: usize = 256 * 1024;
/// Largest frame accepted from, or sent to, the wire. The codec's own
/// limits are no bound (a `u16` entry count of `u16`-length entries is
/// 16 GiB), but its largest indivisible unit is: one entry carries at
/// most `u16::MAX` values, 256 KiB. The ceiling is a stream-tagged block
/// packet of 64 such entries — wider than any fusion width in use, 16 MiB
/// — which leaves the ring collective's 64 KiB chunks and megabyte-sized
/// key-value frames far below it while a hostile prefix can claim at
/// most this instead of 4 GiB.
pub const MAX_FRAME_BYTES: usize =
    TAGGED_BLOCK_HEADER_BYTES + 64 * (ENTRY_HEADER_BYTES + 4 * u16::MAX as usize);

/// Namespace for establishing TCP meshes.
pub struct TcpNetwork;

impl TcpNetwork {
    /// Binds `addrs[local.index()]`, connects the full mesh, and returns
    /// the local endpoint. Call from every node concurrently.
    pub fn establish(local: NodeId, addrs: &[SocketAddr]) -> Result<TcpTransport, TransportError> {
        let n = addrs.len();
        assert!(local.index() < n, "local id out of range");
        let listener = TcpListener::bind(addrs[local.index()])?;
        let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();

        // Dial lower-numbered peers first (they are already listening if
        // started before us, and we retry anyway), then accept from the
        // higher-numbered ones.
        for (j, slot) in streams.iter_mut().enumerate().take(local.index()) {
            *slot = Some(Self::dial(addrs[j], local)?);
        }
        let mut missing = n - 1 - local.index();
        while missing > 0 {
            let (stream, _) = listener.accept()?;
            // Anyone can connect to a listening port: a connection that
            // does not introduce itself as a peer still missing is closed
            // and the wait goes on.
            match Self::read_hello(&stream) {
                Some(peer) if peer > local.index() && peer < n && streams[peer].is_none() => {
                    streams[peer] = Some(stream);
                    missing -= 1;
                }
                _ => {}
            }
        }

        let mut peers = Vec::with_capacity(n);
        let mut fds = Vec::with_capacity(n);
        for stream in streams {
            let peer = stream.map(Peer::new).transpose()?;
            fds.push(PollFd {
                // The kernel skips a negative descriptor.
                fd: peer.as_ref().map_or(-1, |p| p.stream.as_raw_fd()),
                events: POLLIN,
                revents: 0,
            });
            peers.push(peer);
        }
        Ok(TcpTransport {
            endpoint: RefCell::new(Endpoint {
                local,
                peers,
                fds,
                ready: VecDeque::new(),
            }),
        })
    }

    fn dial(addr: SocketAddr, local: NodeId) -> Result<TcpStream, TransportError> {
        let mut last_err = None;
        for _ in 0..CONNECT_ATTEMPTS {
            match TcpStream::connect(addr) {
                Ok(mut s) => {
                    s.write_all(&local.0.to_le_bytes())?;
                    return Ok(s);
                }
                Err(e) => {
                    last_err = Some(e);
                    thread::sleep(CONNECT_RETRY);
                }
            }
        }
        Err(TransportError::Io(last_err.unwrap()))
    }

    /// The node id an accepted connection introduces itself with, if it
    /// does so in time.
    fn read_hello(mut stream: &TcpStream) -> Option<usize> {
        stream.set_read_timeout(Some(HELLO_TIMEOUT)).ok()?;
        let mut hello = [0u8; 2];
        stream.read_exact(&mut hello).ok()?;
        Some(usize::from(u16::from_le_bytes(hello)))
    }
}

/// One connection of the mesh.
struct Peer {
    stream: TcpStream,
    /// `inbuf[..filled]` holds bytes read and not yet decoded, starting at
    /// a frame boundary.
    inbuf: Vec<u8>,
    filled: usize,
    /// `out[written..]` holds encoded `[len][frame]`s the kernel has not
    /// taken yet. Append-only until all of it is written.
    out: Vec<u8>,
    written: usize,
}

impl Peer {
    fn new(stream: TcpStream) -> io::Result<Peer> {
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        Ok(Peer {
            stream,
            inbuf: vec![0u8; READ_BUF],
            filled: 0,
            out: Vec::new(),
            written: 0,
        })
    }

    fn pending(&self) -> usize {
        self.out.len() - self.written
    }
}

/// The loop's state. Only ever touched through [`TcpTransport`]'s
/// `RefCell`, by one thread at a time.
struct Endpoint {
    local: NodeId,
    /// By node id. `None` for this node itself and for a peer whose
    /// connection is gone.
    peers: Vec<Option<Peer>>,
    /// The poll set, by node id: descriptor -1 where `peers` is `None`.
    /// `POLLOUT` is armed on exactly the peers whose last write fell
    /// short ([`Endpoint::write_out`] arms and disarms it), so a poll
    /// never returns for space nobody is waiting to fill.
    fds: Vec<PollFd>,
    /// Decoded messages not yet handed to the engine.
    ready: VecDeque<(NodeId, Message)>,
}

impl Endpoint {
    /// Closes peer `i`'s connection and takes it out of the poll set.
    fn sever(&mut self, i: usize) {
        self.peers[i] = None;
        self.fds[i].fd = -1;
    }

    fn all_closed(&self) -> bool {
        self.peers.iter().all(Option::is_none)
    }

    /// Writes peer `i`'s pending output until it is gone (`Ok(true)`) or
    /// the socket is full (`Ok(false)`). A failed write severs the peer.
    fn write_out(&mut self, i: usize) -> Result<bool, TransportError> {
        let Some(p) = self.peers[i].as_mut() else {
            return Err(TransportError::Disconnected);
        };
        while p.written < p.out.len() {
            match p.stream.write(&p.out[p.written..]) {
                Ok(0) => break,
                Ok(n) => p.written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.fds[i].events = POLLIN | POLLOUT;
                    return Ok(false);
                }
                Err(_) => break,
            }
        }
        if p.written < p.out.len() {
            // Reset, broken pipe, or a socket that takes nothing.
            self.sever(i);
            return Err(TransportError::Disconnected);
        }
        p.out.clear();
        p.written = 0;
        self.fds[i].events = POLLIN;
        Ok(true)
    }

    /// Writes every peer's pending output as far as the sockets take it.
    /// A peer whose write fails is severed and nothing else: the failure
    /// belongs to the next `send` to that peer, not to whoever is calling.
    fn write_pending(&mut self) {
        for i in 0..self.peers.len() {
            if self.peers[i].as_ref().is_some_and(|p| p.pending() > 0) {
                let _ = self.write_out(i);
            }
        }
    }

    /// Writes all of peer `i`'s pending output, waiting for socket space
    /// as long as it takes and reading input into `ready` meanwhile.
    fn flush_peer(&mut self, i: usize) -> Result<(), TransportError> {
        // Common case: the kernel takes it all and no other peer is
        // touched.
        if self.write_out(i)? {
            return Ok(());
        }
        loop {
            self.wait(None)?;
            // Every armed peer is written, not just `i`: one left armed
            // and writable would turn the wait into a spin.
            self.write_pending();
            match &self.peers[i] {
                None => return Err(TransportError::Disconnected),
                Some(p) if p.pending() == 0 => return Ok(()),
                Some(_) => {}
            }
        }
    }

    /// Polls the open peers, for at most `timeout`, and reads every one
    /// that has input (or has hung up, which the read finds out).
    fn wait(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        sys::poll(&mut self.fds, timeout)?;
        for i in 0..self.fds.len() {
            if self.fds[i].revents & !POLLOUT != 0 {
                self.fill(i);
            }
        }
        Ok(())
    }

    /// One `read` from peer `i`, then every complete frame in its buffer
    /// decoded onto `ready`. End of stream, a socket error, an oversized
    /// prefix and an undecodable frame each sever the peer; frames decoded
    /// before that stay in `ready`.
    fn fill(&mut self, i: usize) {
        let Endpoint { peers, ready, .. } = self;
        let Some(p) = peers[i].as_mut() else { return };
        if p.filled == p.inbuf.len() {
            // Full of one incomplete frame, whose prefix was checked when
            // it arrived. Doubling keeps the allocation within twice the
            // bytes the peer really sent, whatever its prefix claims.
            let frame = PREFIX + prefix_of(&p.inbuf);
            p.inbuf.resize(frame.min(2 * p.filled), 0);
        }
        let ok = match p.stream.read(&mut p.inbuf[p.filled..]) {
            Ok(0) => false,
            Ok(n) => {
                p.filled += n;
                let from = NodeId(i as u16);
                decode_frames(p, |msg| ready.push_back((from, msg)))
            }
            Err(e) => matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
        };
        if !ok {
            self.sever(i);
        }
    }

    fn send(&mut self, peer: NodeId, msg: &Message) -> Result<(), TransportError> {
        if peer == self.local {
            // Loopback without touching the socket layer.
            self.ready.push_back((self.local, msg.clone()));
            return Ok(());
        }
        let i = peer.index();
        let p = match self.peers.get_mut(i) {
            None => return Err(TransportError::UnknownPeer(peer)),
            Some(None) => return Err(TransportError::Disconnected),
            Some(Some(p)) => p,
        };
        let at = p.out.len();
        p.out.extend_from_slice(&[0u8; PREFIX]);
        codec::encode_append(msg, &mut p.out);
        let len = p.out.len() - at - PREFIX;
        if len > MAX_FRAME_BYTES {
            p.out.truncate(at);
            return Err(TransportError::Io(io::Error::new(
                ErrorKind::InvalidInput,
                format!("{len}-byte frame exceeds MAX_FRAME_BYTES"),
            )));
        }
        p.out[at..at + PREFIX].copy_from_slice(&(len as u32).to_le_bytes());
        if self.ready.is_empty() || p.pending() >= OUT_HIGH_WATER {
            self.flush_peer(i)
        } else {
            Ok(())
        }
    }

    /// The next decoded message, turning the loop until there is one or
    /// `deadline` has passed (`None`: no deadline).
    fn recv(
        &mut self,
        deadline: Option<Instant>,
    ) -> Result<Option<(NodeId, Message)>, TransportError> {
        loop {
            if let Some(m) = self.ready.pop_front() {
                return Ok(Some(m));
            }
            // About to block: deferred output goes first.
            self.write_pending();
            if self.all_closed() {
                return Err(TransportError::Disconnected);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            self.wait(left)?;
            if self.ready.is_empty() && deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(None);
            }
        }
    }

    fn flush(&mut self) -> Result<(), TransportError> {
        loop {
            self.write_pending();
            if self.peers.iter().flatten().all(|p| p.pending() == 0) {
                return Ok(());
            }
            self.wait(None)?;
        }
    }
}

impl Drop for Endpoint {
    /// Pushes out what is still queued, then lets the sockets close.
    /// Input no longer matters, so only output space is polled for, and
    /// only for [`CLOSE_WAIT`]: a peer that stopped reading cannot hold
    /// the drop up. There is no thread to join.
    fn drop(&mut self) {
        let deadline = Instant::now() + CLOSE_WAIT;
        loop {
            self.write_pending();
            let mut pending = false;
            for (fd, p) in self.fds.iter_mut().zip(&self.peers) {
                if p.as_ref().is_some_and(|p| p.pending() > 0) {
                    fd.events = POLLOUT;
                    pending = true;
                } else {
                    fd.fd = -1;
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if !pending || left.is_zero() || sys::poll(&mut self.fds, Some(left)).is_err() {
                return;
            }
        }
    }
}

/// The length a frame's prefix claims.
fn prefix_of(buf: &[u8]) -> usize {
    u32::from_le_bytes(buf[..PREFIX].try_into().expect("four bytes")) as usize
}

/// Hands every complete frame in `p.inbuf[..p.filled]` to `deliver`, in
/// order, and moves what is left (an incomplete frame) to the front.
/// False when the bytes cannot be a frame stream: a prefix above
/// [`MAX_FRAME_BYTES`] — refused before anything is allocated for it — or
/// a frame the codec rejects.
fn decode_frames(p: &mut Peer, mut deliver: impl FnMut(Message)) -> bool {
    let mut at = 0;
    while p.filled - at >= PREFIX {
        let len = prefix_of(&p.inbuf[at..]);
        if len > MAX_FRAME_BYTES {
            return false;
        }
        let end = at + PREFIX + len;
        if end > p.filled {
            break;
        }
        match codec::decode(&p.inbuf[at + PREFIX..end]) {
            Ok(msg) => deliver(msg),
            Err(_) => return false,
        }
        at = end;
    }
    if at > 0 {
        p.inbuf.copy_within(at..p.filled, 0);
        p.filled -= at;
    }
    true
}

/// One node's endpoint in a TCP mesh.
///
/// `Send` and not `Sync`: whoever owns the endpoint drives its loop (see
/// the module docs), from one thread at a time.
pub struct TcpTransport {
    endpoint: RefCell<Endpoint>,
}

impl TcpTransport {
    /// Writes every peer's deferred output to its socket, waiting for
    /// space where needed (and reading input meanwhile). For an owner
    /// that sent while received messages were still queued and will not
    /// call `recv` for a while; engines that alternate `recv` and `send`
    /// never need it. A peer whose connection fails here is severed; the
    /// next `send` to it says so.
    pub fn flush(&self) -> Result<(), TransportError> {
        self.endpoint.borrow_mut().flush()
    }
}

impl Transport for TcpTransport {
    fn local_id(&self) -> NodeId {
        self.endpoint.borrow().local
    }

    fn send(&self, peer: NodeId, msg: &Message) -> Result<(), TransportError> {
        self.endpoint.borrow_mut().send(peer, msg)
    }

    fn recv(&self) -> Result<(NodeId, Message), TransportError> {
        let got = self.endpoint.borrow_mut().recv(None)?;
        Ok(got.expect("a receive without deadline returns a message or an error"))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
        // A timeout too long for the clock to represent is no timeout.
        let deadline = Instant::now().checked_add(timeout);
        self.endpoint.borrow_mut().recv(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Entry, Packet, PacketKind};
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::atomic::{AtomicU16, Ordering};

    static NEXT_PORT: AtomicU16 = AtomicU16::new(21000);

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

    fn establish_mesh(n: usize) -> Vec<TcpTransport> {
        let a = addrs(n);
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let a = a.clone();
                thread::spawn(move || TcpNetwork::establish(NodeId(i as u16), &a).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn two_node_round_trip() {
        let mut eps = establish_mesh(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let msg = Message::Block(Packet {
            kind: PacketKind::Data,
            ver: 0,
            slot: 3,
            stream: 0,
            wid: 0,
            epoch: 0,
            entries: vec![Entry::data(1, 2, vec![1.0, 2.0, 3.0])],
        });
        a.send(NodeId(1), &msg).unwrap();
        let (from, got) = b.recv().unwrap();
        assert_eq!(from, NodeId(0));
        assert_eq!(got, msg);
        b.send(NodeId(0), &Message::Start { seq: 9 }).unwrap();
        assert_eq!(a.recv().unwrap().1, Message::Start { seq: 9 });
    }

    #[test]
    fn four_node_mesh_all_pairs() {
        let eps = establish_mesh(4);
        // Every node sends its id to every other node.
        for (i, ep) in eps.iter().enumerate() {
            for j in 0..eps.len() {
                if i != j {
                    ep.send(NodeId(j as u16), &Message::Start { seq: i as u64 })
                        .unwrap();
                }
            }
        }
        for (j, ep) in eps.iter().enumerate() {
            let mut seen = vec![false; eps.len()];
            for _ in 0..eps.len() - 1 {
                let (from, msg) = ep.recv().unwrap();
                assert_eq!(msg, Message::Start { seq: from.0 as u64 });
                assert!(!seen[from.index()], "dup from {from} at {j}");
                seen[from.index()] = true;
            }
        }
    }

    #[test]
    fn loopback_send() {
        let mut eps = establish_mesh(2);
        let _b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(NodeId(0), &Message::Shutdown).unwrap();
        assert_eq!(a.recv().unwrap(), (NodeId(0), Message::Shutdown));
    }

    #[test]
    fn large_frame_survives() {
        let mut eps = establish_mesh(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let data: Vec<f32> = (0..16384).map(|i| i as f32).collect();
        let msg = Message::Block(Packet {
            kind: PacketKind::Result,
            ver: 1,
            slot: 0,
            stream: 0,
            wid: 0,
            epoch: 0,
            entries: vec![Entry::data(0, 1, data)],
        });
        a.send(NodeId(1), &msg).unwrap();
        assert_eq!(b.recv().unwrap().1, msg);
    }
}

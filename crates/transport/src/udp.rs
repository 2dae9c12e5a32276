//! UDP mesh transport: real datagram sockets, one frame per datagram.
//!
//! The closest commodity equivalent of the paper's DPDK/UDP environment:
//! unreliable, unordered-in-principle (in practice loopback preserves
//! order), with each protocol message in one datagram. Pair it with the
//! Algorithm 2 engines ([`crate::fault`] injects loss for tests; real
//! networks provide their own).
//!
//! Messages must encode below the datagram ceiling
//! ([`MAX_DATAGRAM_BYTES`]): OmniReduce packets (a few KB of fused
//! blocks) fit comfortably; bulk transports like the ring collective's
//! 64 KB chunks do not — use TCP for those.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::codec;
use crate::message::{Message, NodeId};
use crate::{Transport, TransportError};

/// Largest frame this transport sends in one datagram (conservative
/// bound below the 64 KB UDP limit, leaving room for headers).
pub const MAX_DATAGRAM_BYTES: usize = 60_000;

/// Namespace for establishing UDP meshes.
pub struct UdpNetwork;

impl UdpNetwork {
    /// Binds `addrs[local.index()]` and returns the endpoint. Unlike
    /// TCP, no connection setup: the mesh exists as soon as every node
    /// is bound (datagrams to unbound peers are dropped by the OS, which
    /// the recovery protocol tolerates by design).
    pub fn bind(local: NodeId, addrs: &[SocketAddr]) -> Result<UdpTransport, TransportError> {
        assert!(local.index() < addrs.len(), "local id out of range");
        let socket = UdpSocket::bind(addrs[local.index()])?;
        let (tx, rx) = unbounded();
        let recv_socket = socket.try_clone()?;
        // A bounded read timeout so the reader re-checks the shutdown
        // flag even if the wake datagram sent on drop is lost.
        recv_socket.set_read_timeout(Some(Duration::from_millis(200)))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let reader_shutdown = shutdown.clone();
        let peer_addrs = addrs.to_vec();
        let reader = thread::Builder::new()
            .name(format!("udp-rx-{local}"))
            .spawn(move || Self::reader_loop(recv_socket, peer_addrs, tx, &reader_shutdown))
            .expect("spawn reader");
        Ok(UdpTransport {
            local,
            socket: Arc::new(socket),
            addrs: addrs.to_vec(),
            rx,
            shutdown,
            reader: Some(reader),
        })
    }

    fn reader_loop(
        socket: UdpSocket,
        addrs: Vec<SocketAddr>,
        tx: Sender<(NodeId, Message)>,
        shutdown: &AtomicBool,
    ) {
        let mut buf = vec![0u8; 65_536];
        while !shutdown.load(Ordering::Acquire) {
            let (len, from_addr) = match socket.recv_from(&mut buf) {
                Ok(x) => x,
                // Read timeout: loop around and re-check the flag.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue;
                }
                Err(_) => return, // socket closed
            };
            // Identify the sender by its source address.
            let Some(from) = addrs.iter().position(|a| *a == from_addr) else {
                continue; // stray datagram
            };
            let Ok(msg) = codec::decode(&buf[..len]) else {
                continue; // corrupt datagram: drop, like the real network
            };
            if tx.send((NodeId(from as u16), msg)).is_err() {
                return;
            }
        }
    }
}

/// One node's endpoint in a UDP mesh.
pub struct UdpTransport {
    local: NodeId,
    socket: Arc<UdpSocket>,
    addrs: Vec<SocketAddr>,
    rx: Receiver<(NodeId, Message)>,
    shutdown: Arc<AtomicBool>,
    reader: Option<thread::JoinHandle<()>>,
}

impl Drop for UdpTransport {
    /// Stops and joins the reader thread: without this, the cloned
    /// socket kept `udp-rx-*` blocked in `recv_from` forever after the
    /// endpoint was dropped (one leaked thread + one leaked socket per
    /// endpoint, per run).
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the reader out of recv_from immediately; if the wake
        // datagram is dropped, the 200ms read timeout catches the flag.
        if let Ok(local) = self.socket.local_addr() {
            let _ = self.socket.send_to(&[], local);
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Transport for UdpTransport {
    fn local_id(&self) -> NodeId {
        self.local
    }

    fn send(&self, peer: NodeId, msg: &Message) -> Result<(), TransportError> {
        let addr = self
            .addrs
            .get(peer.index())
            .ok_or(TransportError::UnknownPeer(peer))?;
        let frame = codec::encode(msg);
        assert!(
            frame.len() <= MAX_DATAGRAM_BYTES,
            "message of {} bytes exceeds the datagram ceiling; use TCP",
            frame.len()
        );
        // UDP send errors (e.g. ICMP unreachable surfacing) are treated
        // as drops: the recovery protocol owns reliability.
        let _ = self.socket.send_to(&frame, addr);
        Ok(())
    }

    fn recv(&self) -> Result<(NodeId, Message), TransportError> {
        self.rx.recv().map_err(|_| TransportError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(Some(m)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Entry, Packet, PacketKind};
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::atomic::{AtomicU16, Ordering};

    static NEXT_PORT: AtomicU16 = AtomicU16::new(26000);

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

    #[test]
    fn datagram_round_trip() {
        let a = addrs(2);
        let t0 = UdpNetwork::bind(NodeId(0), &a).unwrap();
        let t1 = UdpNetwork::bind(NodeId(1), &a).unwrap();
        let msg = Message::Block(Packet {
            kind: PacketKind::Data,
            ver: 1,
            slot: 7,
            stream: 0,
            wid: 0,
            epoch: 0,
            entries: vec![Entry::data(3, 5, vec![1.0, 2.0])],
        });
        t0.send(NodeId(1), &msg).unwrap();
        let (from, got) = t1.recv().unwrap();
        assert_eq!(from, NodeId(0));
        assert_eq!(got, msg);
        t1.send(NodeId(0), &Message::Shutdown).unwrap();
        assert_eq!(t0.recv().unwrap().1, Message::Shutdown);
    }

    #[test]
    fn three_node_mesh() {
        let a = addrs(3);
        let eps: Vec<_> = (0..3)
            .map(|i| UdpNetwork::bind(NodeId(i as u16), &a).unwrap())
            .collect();
        for (i, ep) in eps.iter().enumerate() {
            for j in 0..3 {
                if i != j {
                    ep.send(NodeId(j as u16), &Message::Start { seq: i as u64 })
                        .unwrap();
                }
            }
        }
        for ep in &eps {
            let mut seen = 0;
            while seen < 2 {
                if let Some((from, msg)) = ep.recv_timeout(Duration::from_secs(2)).unwrap() {
                    assert_eq!(msg, Message::Start { seq: from.0 as u64 });
                    seen += 1;
                }
            }
        }
    }

    #[test]
    fn dropping_the_endpoint_stops_the_reader_thread() {
        let a = addrs(1);
        let t = UdpNetwork::bind(NodeId(0), &a).unwrap();
        assert!(t.recv_timeout(Duration::from_millis(5)).unwrap().is_none());
        // Drop on a helper thread so a regression (reader stuck in
        // recv_from → join hangs) fails the test instead of wedging the
        // whole harness.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            drop(t);
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("drop() hung: the udp-rx reader thread never exited");
    }

    #[test]
    fn recv_timeout_when_idle() {
        let a = addrs(1);
        let t = UdpNetwork::bind(NodeId(0), &a).unwrap();
        assert!(t.recv_timeout(Duration::from_millis(20)).unwrap().is_none());
    }

    #[test]
    #[should_panic(expected = "datagram ceiling")]
    fn oversized_message_panics() {
        let a = addrs(2);
        let t = UdpNetwork::bind(NodeId(0), &a).unwrap();
        let msg = Message::Block(Packet {
            kind: PacketKind::Data,
            ver: 0,
            slot: 0,
            stream: 0,
            wid: 0,
            epoch: 0,
            entries: vec![Entry::data(0, 1, vec![0.0; 16_000])],
        });
        let _ = t.send(NodeId(1), &msg);
    }

    /// Full OmniReduce recovery group over real UDP datagrams: the
    /// protocol designed for the DPDK path runs unchanged on kernel UDP.
    #[test]
    fn works_as_substrate_for_loss_recovery_engines() {
        // Smoke-level check only (loopback rarely drops): one message
        // each way with a data payload at realistic fused-packet size.
        let a = addrs(2);
        let t0 = UdpNetwork::bind(NodeId(0), &a).unwrap();
        let t1 = UdpNetwork::bind(NodeId(1), &a).unwrap();
        let fused = Message::Block(Packet {
            kind: PacketKind::Data,
            ver: 0,
            slot: 2,
            stream: 0,
            wid: 0,
            epoch: 0,
            entries: (0..4)
                .map(|c| Entry::data(c, c + 4, vec![0.5; 256]))
                .collect(),
        });
        t0.send(NodeId(1), &fused).unwrap();
        assert_eq!(t1.recv().unwrap().1, fused);
    }
}

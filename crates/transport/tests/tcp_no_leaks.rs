//! [`TcpTransport`] leaves no thread and no descriptor behind: the leak
//! the reader-thread implementation had.
//!
//! The test counts the whole process's threads and descriptors, so it is
//! the only test in this binary: the harness starts no other test's
//! thread that could move the count while it runs.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicU16, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use omnireduce_transport::tcp::TcpTransport;
use omnireduce_transport::{Message, NodeId, TcpNetwork, Transport};

/// Ports no other test in the repository uses (the unit tests take
/// 21000+, the example 23500+, the transport contract 24000+, UDP 26000+
/// and 28100+), below the range the kernel hands out to outgoing
/// connections.
static NEXT_PORT: AtomicU16 = AtomicU16::new(25_000);

/// An `n`-node mesh, each node established on a thread of its own as it
/// must be; the threads are joined before this returns.
fn mesh(n: usize) -> Vec<TcpTransport> {
    let a: Vec<SocketAddr> = (0..n)
        .map(|_| {
            SocketAddr::new(
                IpAddr::V4(Ipv4Addr::LOCALHOST),
                NEXT_PORT.fetch_add(1, Ordering::SeqCst),
            )
        })
        .collect();
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let a = a.clone();
            thread::spawn(move || TcpNetwork::establish(NodeId(i as u16), &a).unwrap())
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn start(seq: u64) -> Message {
    Message::Start { seq }
}

fn proc_status_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Waits (a joined thread can stay visible in `/proc` for a moment) until
/// `read()` is at most `limit`, and returns the last value read.
fn settle(read: impl Fn() -> usize, limit: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = read();
        if now <= limit || Instant::now() >= deadline {
            return now;
        }
        thread::sleep(Duration::from_millis(5));
    }
}

/// ROADMAP 2(a). The reader-thread endpoint left 20 threads and 20
/// sockets behind per 5-node mesh: +200 of each here.
#[test]
fn no_threads_no_fds_left() {
    let threads0 = proc_status_threads();
    let fds0 = open_fds();
    for rep in 0..10 {
        let eps = mesh(5);
        if rep == 0 {
            // The endpoints are there, the threads that established them
            // are joined: a live mesh runs on its owners' threads only.
            let live = settle(proc_status_threads, threads0);
            assert!(
                live <= threads0,
                "a live mesh added {} threads",
                live - threads0
            );
        }
        // Carry traffic on every link before the drop.
        for (i, ep) in eps.iter().enumerate() {
            for j in (0..eps.len()).filter(|j| *j != i) {
                ep.send(NodeId(j as u16), &start(i as u64)).unwrap();
            }
        }
        for ep in &eps {
            for _ in 1..eps.len() {
                ep.recv().unwrap();
            }
        }
    }
    let threads = settle(proc_status_threads, threads0);
    let fds = settle(open_fds, fds0);
    assert!(threads <= threads0, "{} threads leaked", threads - threads0);
    assert!(fds <= fds0, "{} descriptors leaked", fds - fds0);
}

//! The one system call the socket transports need that `std` does not
//! wrap: `ppoll(2)`, readiness of many descriptors with a nanosecond
//! timeout.
//!
//! No `libc` crate is vendored and none is needed: the binding is one
//! `extern "C"` declaration against the C library `std` already links.
//! This file holds the crate's only `unsafe`.

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::time::{Duration, Instant};

/// Data to read (or end of stream).
pub(crate) const POLLIN: c_short = 0x001;
/// Space to write.
pub(crate) const POLLOUT: c_short = 0x004;

/// `struct pollfd`. A negative `fd` is skipped by the kernel (its
/// `revents` reads 0), which is how a closed peer leaves the poll set.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct PollFd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

/// `struct timespec` (`time_t` is `long` on every Linux ABI `std`
/// supports without the time64 transition).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until a descriptor in `fds` has one of its `events` (or an
/// error or hang-up, which the kernel always reports), or `timeout`
/// passes; `None` waits without limit. Returns how many entries have a
/// non-zero `revents`, 0 on timeout. A signal restarts the wait with
/// what is left of the timeout.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    // A timeout too long for the clock to represent is no timeout.
    let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
    loop {
        let ts = deadline.map(|d| {
            let left = d.saturating_duration_since(Instant::now());
            Timespec {
                tv_sec: c_long::try_from(left.as_secs()).unwrap_or(c_long::MAX),
                tv_nsec: c_long::from(left.subsec_nanos() as i32),
            }
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // structs laid out as `struct pollfd`, and the length passed is
        // its own; `ts_ptr` is null or points at `ts`, which outlives the
        // call; a null signal mask leaves the mask as it is. The kernel
        // writes nothing but the `revents` fields.
        let n = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                ts_ptr,
                std::ptr::null(),
            )
        };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn times_out_on_nothing_and_skips_negative_fds() {
        let mut fds = [PollFd {
            fd: -1,
            events: POLLIN,
            revents: 0,
        }];
        let t0 = Instant::now();
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(5))).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(fds[0].revents, 0);
        assert_eq!(poll(&mut [], Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn reports_readable_and_writable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        let mut fds = [PollFd {
            fd: b.as_raw_fd(),
            events: POLLIN | POLLOUT,
            revents: 0,
        }];
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert_eq!(fds[0].revents & (POLLIN | POLLOUT), POLLOUT);
        a.write_all(b"x").unwrap();
        fds[0].events = POLLIN;
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert_eq!(fds[0].revents & POLLIN, POLLIN);
    }
}

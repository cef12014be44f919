//! The two libc calls this workspace needs: `signal(2)` and `poll(2)`.
//!
//! The workspace carries no FFI crates, so the declarations live here.
//! `signal(2)` is shared by the supervisor (SIGTERM/SIGINT → graceful
//! drain flag) and the worker mode (ignore both: a signal aimed at the
//! process group must not bypass the supervisor-coordinated drain —
//! workers exit on stdin EOF or an explicit shutdown frame). Handlers are
//! restricted to storing an `AtomicBool` or `SIG_IGN`, both
//! async-signal-safe.
//!
//! `poll(2)` lets the acceptor sleep until the listening socket is
//! readable ([`wait_readable`]) instead of polling `accept` on a timer.
//! The wait is bounded by the caller so the drain flag is still checked:
//! any thread may take SIGTERM, so an `EINTR` wake-up is a bonus, not the
//! mechanism. Non-unix builds sleep a fixed 2 ms instead.

#[cfg(unix)]
mod imp {
    use std::net::TcpListener;
    use std::os::raw::c_int;
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::os::raw::c_uint;

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    const POLLIN: i16 = 0x1;

    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    pub const SIG_IGN: usize = 1;

    pub fn set_handler(sig: i32, handler: usize) {
        unsafe {
            signal(sig, handler);
        }
    }

    /// Block until `listener` has a connection to accept, or at most
    /// `bound`. `Ok(true)`: readable; `Ok(false)`: the bound passed or a
    /// signal interrupted the wait — the caller re-checks its shutdown
    /// flag either way. `Err` only when `poll(2)` itself fails.
    pub fn wait_readable(listener: &TcpListener, bound: Duration) -> std::io::Result<bool> {
        let mut pfd = PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 };
        let ms = c_int::try_from(bound.as_millis()).unwrap_or(c_int::MAX);
        // SAFETY: `pfd` is a live, exclusively borrowed array of one
        // pollfd for the duration of the call.
        let n = unsafe { poll(&mut pfd, 1, ms) };
        if n >= 0 {
            // Any revents (POLLIN, or POLLERR/POLLHUP) means `accept` has
            // something to report.
            return Ok(n > 0);
        }
        let e = std::io::Error::last_os_error();
        if e.kind() == std::io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use std::net::TcpListener;
    use std::time::Duration;

    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    pub const SIG_IGN: usize = 1;

    pub fn set_handler(_sig: i32, _handler: usize) {}

    pub fn wait_readable(_listener: &TcpListener, _bound: Duration) -> std::io::Result<bool> {
        std::thread::sleep(Duration::from_millis(2));
        Ok(true)
    }
}

pub use imp::{set_handler, wait_readable, SIGINT, SIGTERM, SIG_IGN};

/// Make termination signals no-ops (worker mode).
pub fn ignore_termination_signals() {
    set_handler(SIGTERM, SIG_IGN);
    set_handler(SIGINT, SIG_IGN);
}

#[cfg(all(test, unix))]
mod unit {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    fn listener() -> TcpListener {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.set_nonblocking(true).unwrap();
        l
    }

    #[test]
    fn wait_readable_wakes_promptly_on_connect() {
        let l = listener();
        let addr = l.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            TcpStream::connect(addr).unwrap()
        });
        let t0 = Instant::now();
        assert!(wait_readable(&l, Duration::from_secs(10)).unwrap());
        assert!(t0.elapsed() < Duration::from_secs(2), "woke after {:?}", t0.elapsed());
        let _conn = peer.join().unwrap();
        assert!(l.accept().is_ok(), "readable means accept has a connection");
    }

    #[test]
    fn wait_readable_returns_at_its_bound_when_idle() {
        let l = listener();
        let bound = Duration::from_millis(100);
        let t0 = Instant::now();
        assert!(!wait_readable(&l, bound).unwrap());
        let took = t0.elapsed();
        assert!(took >= Duration::from_millis(90), "returned early after {took:?}");
        assert!(took < Duration::from_secs(2), "overslept its bound: {took:?}");
    }
}

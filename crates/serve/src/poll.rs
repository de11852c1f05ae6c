//! A std-only readiness facility: `poll(2)` plus a wake pipe.
//!
//! The readiness-driven daemon needs exactly three things the standard
//! library does not expose: waiting on many fds at once (`poll`), a way
//! for other threads to interrupt that wait (a self-pipe whose read end
//! joins the poll set), and non-blocking mode on accepted sockets
//! (which `std` *does* expose via `TcpStream::set_nonblocking`). The
//! workspace builds with no external crates, so `poll`/`pipe`/`read`/
//! `write`/`close` are declared directly against libc — `std` already
//! links libc on every Unix target, the same precedent as
//! [`signals`](crate::signals).
//!
//! On non-Unix targets the module still compiles but [`poll_fds`]
//! returns `Unsupported`, and so does the daemon's
//! [`Server::run`](crate::daemon::Server::run).

use std::io;

/// Readable data is available (or a peer closed with data pending).
pub const POLLIN: i16 = 0x001;
/// The fd is writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// The fd is not open (revents only).
pub const POLLNVAL: i16 = 0x020;

/// One entry of a `poll(2)` set, ABI-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch (negative entries are ignored by
    /// the kernel — the classic tombstone for removed connections).
    pub fd: i32,
    /// Events of interest ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Events that occurred, written by the kernel.
    pub revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events`.
    pub fn new(fd: i32, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether any of `mask`'s bits came back in `revents`.
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// Whether the kernel flagged an error/hangup condition.
    pub fn failed(&self) -> bool {
        self.revents & (POLLERR | POLLNVAL) != 0
    }
}

#[cfg(unix)]
mod imp {
    use super::PollFd;
    use std::io;

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    type NfdsT = u64;
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    type NfdsT = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    }

    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: i32 = 0o4000;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: i32 = 0x0004;

    /// Puts `fd` into non-blocking mode (best effort).
    fn set_nonblocking(fd: i32) {
        unsafe {
            let flags = fcntl(fd, F_GETFL, 0);
            if flags >= 0 {
                let _ = fcntl(fd, F_SETFL, flags | O_NONBLOCK);
            }
        }
    }

    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// The wake pipe: the read end sits in the poll set; any thread
    /// holding a [`Waker`](super::Waker) can make `poll` return.
    #[derive(Debug)]
    pub struct WakePipe {
        read_fd: i32,
        write_fd: i32,
    }

    impl WakePipe {
        pub fn new() -> io::Result<WakePipe> {
            let mut fds = [-1i32; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
                return Err(io::Error::last_os_error());
            }
            // Non-blocking on both ends: drain must never block the
            // event loop, and a wake against a full pipe (already
            // plenty of pending bytes) may simply drop its byte.
            set_nonblocking(fds[0]);
            set_nonblocking(fds[1]);
            Ok(WakePipe {
                read_fd: fds[0],
                write_fd: fds[1],
            })
        }

        pub fn read_fd(&self) -> i32 {
            self.read_fd
        }

        pub fn waker(&self) -> super::Waker {
            super::Waker {
                write_fd: self.write_fd,
            }
        }

        /// Drains every pending wake byte (non-destructive if none).
        ///
        /// Never blocks: the read end is non-blocking, and each read is
        /// additionally gated on a zero-timeout poll reporting data, so
        /// pending bytes landing on an exact multiple of the buffer
        /// size cannot wedge the event loop on a blocking `read(2)`.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            loop {
                let mut fds = [PollFd::new(self.read_fd, super::POLLIN)];
                let readable =
                    matches!(poll_fds(&mut fds, 0), Ok(n) if n > 0) && fds[0].ready(super::POLLIN);
                if !readable {
                    return;
                }
                let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
                if n <= 0 || n < buf.len() as isize {
                    return;
                }
            }
        }
    }

    impl Drop for WakePipe {
        fn drop(&mut self) {
            unsafe {
                let _ = close(self.read_fd);
                let _ = close(self.write_fd);
            }
        }
    }

    pub fn wake(write_fd: i32) {
        let byte = [1u8];
        unsafe {
            let _ = write(write_fd, byte.as_ptr(), 1);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use super::PollFd;
    use std::io;

    pub fn poll_fds(_fds: &mut [PollFd], _timeout_ms: i32) -> io::Result<usize> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "poll(2) readiness I/O is only available on Unix",
        ))
    }

    /// Stub wake pipe for non-Unix targets (construction fails).
    #[derive(Debug)]
    pub struct WakePipe {}

    impl WakePipe {
        pub fn new() -> io::Result<WakePipe> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "poll(2) readiness I/O is only available on Unix",
            ))
        }

        pub fn read_fd(&self) -> i32 {
            -1
        }

        pub fn waker(&self) -> super::Waker {
            super::Waker { write_fd: -1 }
        }

        pub fn drain(&self) {}
    }

    pub fn wake(_write_fd: i32) {}
}

/// Waits for readiness on `fds` for at most `timeout_ms` milliseconds
/// (`-1` blocks indefinitely), retrying `EINTR` internally. Returns the
/// number of entries with non-zero `revents`.
///
/// # Errors
///
/// The raw OS error from `poll(2)`, or `Unsupported` off Unix.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    imp::poll_fds(fds, timeout_ms)
}

/// A self-pipe whose read end joins the poll set so other threads can
/// interrupt a blocked [`poll_fds`]. Closes both ends on drop.
#[derive(Debug)]
pub struct WakePipe(imp::WakePipe);

impl WakePipe {
    /// Opens the pipe.
    ///
    /// # Errors
    ///
    /// The raw OS error from `pipe(2)`, or `Unsupported` off Unix.
    pub fn new() -> io::Result<WakePipe> {
        imp::WakePipe::new().map(WakePipe)
    }

    /// The fd to add to the poll set with [`POLLIN`].
    pub fn read_fd(&self) -> i32 {
        self.0.read_fd()
    }

    /// A cheap, cloneable handle other threads use to wake the loop.
    pub fn waker(&self) -> Waker {
        self.0.waker()
    }

    /// Consumes pending wake bytes after `poll` reported the read end
    /// readable. Call only from the polling thread.
    pub fn drain(&self) {
        self.0.drain();
    }
}

/// Wakes a [`WakePipe`]'s poll loop by writing one byte. `Clone + Send`:
/// hand copies to worker callbacks and signal bridges freely. A wake on
/// a dropped pipe is a harmless no-op at the OS level (`EBADF` ignored).
#[derive(Debug, Clone, Copy)]
pub struct Waker {
    write_fd: i32,
}

impl Waker {
    /// Makes the associated poll loop return promptly.
    pub fn wake(&self) {
        imp::wake(self.write_fd);
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn poll_times_out_on_idle_fds() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, 10).unwrap();
        assert_eq!(n, 0);
        assert!(!fds[0].ready(POLLIN));
    }

    #[test]
    fn poll_reports_readable_data_and_writable_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        let mut fds = [
            PollFd::new(server.as_raw_fd(), POLLIN),
            PollFd::new(client.as_raw_fd(), POLLOUT),
        ];
        let n = poll_fds(&mut fds, 1000).unwrap();
        assert_eq!(n, 2);
        assert!(fds[0].ready(POLLIN), "written byte makes the peer readable");
        assert!(fds[1].ready(POLLOUT), "idle socket buffer is writable");
    }

    #[test]
    fn waker_interrupts_a_blocked_poll() {
        let pipe = WakePipe::new().unwrap();
        let waker = pipe.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            waker.wake();
        });
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        // Far below the 10s timeout: only the wake can end this early.
        let n = poll_fds(&mut fds, 10_000).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN));
        pipe.drain();
        // After the drain the pipe polls idle again.
        let n = poll_fds(&mut fds, 10).unwrap();
        assert_eq!(n, 0);
        handle.join().unwrap();
    }

    #[test]
    fn drain_returns_on_exact_buffer_multiples_without_blocking() {
        // 128 pending bytes = exactly two 64-byte drain reads; the
        // second read fills the buffer exactly and a naive drain would
        // then block forever on an empty pipe.
        let pipe = WakePipe::new().unwrap();
        let waker = pipe.waker();
        for _ in 0..128 {
            waker.wake();
        }
        pipe.drain();
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        let n = poll_fds(&mut fds, 10).unwrap();
        assert_eq!(n, 0, "drain must leave the pipe empty");
    }

    #[test]
    fn negative_fds_are_ignored_tombstones() {
        let pipe = WakePipe::new().unwrap();
        pipe.waker().wake();
        let mut fds = [PollFd::new(-1, POLLIN), PollFd::new(pipe.read_fd(), POLLIN)];
        let n = poll_fds(&mut fds, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(!fds[0].ready(POLLIN));
        assert_eq!(fds[0].revents, 0);
        assert!(fds[1].ready(POLLIN));
    }
}

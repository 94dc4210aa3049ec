//! In-tree stand-in for the `epoll`/`mio` crates: a minimal safe wrapper
//! over Linux `epoll(7)` and `eventfd(2)`.
//!
//! The workspace forbids unsafe code everywhere business logic lives, but
//! readiness-driven I/O needs a handful of raw syscalls. This shim
//! confines them: the `extern "C"` declarations bind symbols that `std`
//! already links from libc, every fd is held in an [`OwnedFd`], and the
//! public surface ([`Epoll`], [`Events`], [`Waker`]) is entirely safe.
//!
//! Only level-triggered mode is exposed — the reactor in `swarm-net`
//! re-arms interest explicitly, which keeps the state machines auditable.
//!
//! On non-Linux targets the same API compiles but every constructor
//! returns `ErrorKind::Unsupported`. There is no fallback: that error
//! surfaces from `swarm_net`'s `TcpServer::spawn*` and
//! `TcpTransport::connect`, so TCP is Linux-only, while the in-process
//! `MemTransport` works everywhere.

#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::time::Duration;

#[cfg(target_os = "linux")]
pub use std::os::fd::RawFd;
#[cfg(target_os = "linux")]
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
#[cfg(not(target_os = "linux"))]
/// Raw file descriptor alias so the API compiles off-Linux.
pub type RawFd = i32;

/// Readiness interest to register a descriptor with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Write-only interest.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };

    /// Read + write interest.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification returned by [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Descriptor is readable (includes peer hang-up, so a final `read`
    /// observing EOF is never missed).
    pub readable: bool,
    /// Descriptor is writable.
    pub writable: bool,
    /// Error or hang-up condition (`EPOLLERR`/`EPOLLHUP`): the owner
    /// should read to collect the error and close.
    pub error: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::*;

    // epoll_event is packed on x86_64 (kernel ABI quirk); matching libc's
    // definition exactly is what keeps this wrapper correct.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(crate) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub(crate) const EPOLLIN: u32 = 0x001;
    pub(crate) const EPOLLOUT: u32 = 0x004;
    pub(crate) const EPOLLERR: u32 = 0x008;
    pub(crate) const EPOLLHUP: u32 = 0x010;
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;

    pub(crate) const EPOLL_CTL_ADD: i32 = 1;
    pub(crate) const EPOLL_CTL_DEL: i32 = 2;
    pub(crate) const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EFD_CLOEXEC: i32 = 0x80000;
    const EFD_NONBLOCK: i32 = 0x800;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }

    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: i32 = 7;

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub(crate) fn create() -> io::Result<OwnedFd> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    pub(crate) fn ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
    }

    pub(crate) fn wait(epfd: RawFd, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    pub(crate) fn new_eventfd() -> io::Result<OwnedFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    pub(crate) fn eventfd_write(fd: RawFd) -> io::Result<()> {
        let one = 1u64.to_ne_bytes();
        let n = unsafe { write(fd, one.as_ptr(), one.len()) };
        // EAGAIN means the counter is already non-zero: the wake is
        // pending, which is all the caller needs.
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::WouldBlock {
                return Err(err);
            }
        }
        Ok(())
    }

    pub(crate) fn eventfd_drain(fd: RawFd) {
        let mut buf = [0u8; 8];
        // Non-blocking: one read clears the counter entirely.
        let _ = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
    }

    pub(crate) fn raise_nofile(min: u64) -> io::Result<u64> {
        let mut lim = Rlimit { cur: 0, max: 0 };
        cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
        if lim.cur >= min {
            return Ok(lim.cur);
        }
        let want = min.min(lim.max);
        let new = Rlimit {
            cur: want,
            max: lim.max,
        };
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &new) })?;
        Ok(want)
    }
}

/// An epoll instance (level-triggered).
#[derive(Debug)]
pub struct Epoll {
    #[cfg(target_os = "linux")]
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a new epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure; `Unsupported` off-Linux.
    pub fn new() -> io::Result<Epoll> {
        #[cfg(target_os = "linux")]
        {
            Ok(Epoll { fd: sys::create()? })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll is linux-only",
            ))
        }
    }

    #[cfg(target_os = "linux")]
    fn events_bits(interest: Interest) -> u32 {
        let mut bits = sys::EPOLLRDHUP;
        if interest.readable {
            bits |= sys::EPOLLIN;
        }
        if interest.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    /// Registers `fd` with the given `token` and `interest`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (e.g. the fd is already registered).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            sys::ctl(
                self.fd.as_raw_fd(),
                sys::EPOLL_CTL_ADD,
                fd,
                Self::events_bits(interest),
                token,
            )
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (fd, token, interest);
            unreachable!("Epoll cannot be constructed off-linux")
        }
    }

    /// Changes the interest set of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            sys::ctl(
                self.fd.as_raw_fd(),
                sys::EPOLL_CTL_MOD,
                fd,
                Self::events_bits(interest),
                token,
            )
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (fd, token, interest);
            unreachable!("Epoll cannot be constructed off-linux")
        }
    }

    /// Deregisters `fd`. Closing the descriptor also deregisters it, so
    /// this is only needed when the fd outlives its registration.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            sys::ctl(self.fd.as_raw_fd(), sys::EPOLL_CTL_DEL, fd, 0, 0)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = fd;
            unreachable!("Epoll cannot be constructed off-linux")
        }
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses (`None` = block indefinitely), filling `events`.
    /// Returns the number of events. EINTR is retried internally.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        {
            let timeout_ms = match timeout {
                None => -1,
                // Round up so a 100µs deadline does not spin at timeout 0.
                Some(d) => {
                    i32::try_from(d.as_millis().max(1).min(i32::MAX as u128)).unwrap_or(i32::MAX)
                }
            };
            let n = sys::wait(self.fd.as_raw_fd(), &mut events.buf, timeout_ms)?;
            events.len = n;
            Ok(n)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (events, timeout);
            unreachable!("Epoll cannot be constructed off-linux")
        }
    }
}

/// Reusable buffer of readiness notifications for [`Epoll::wait`].
pub struct Events {
    #[cfg(target_os = "linux")]
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Events").field("len", &self.len).finish()
    }
}

impl Events {
    /// A buffer able to hold `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            #[cfg(target_os = "linux")]
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Iterates over the events delivered by the last wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        #[cfg(target_os = "linux")]
        {
            self.buf[..self.len].iter().map(|raw| {
                // Copy out of the (possibly packed) struct before use.
                let bits = raw.events;
                let token = raw.data;
                Event {
                    token,
                    readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                    error: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                }
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            std::iter::empty()
        }
    }
}

/// Wakes an [`Epoll::wait`] from another thread (an `eventfd` registered
/// read-only under the caller's token).
#[derive(Debug)]
pub struct Waker {
    #[cfg(target_os = "linux")]
    fd: OwnedFd,
}

impl Waker {
    /// Creates a waker and registers it with `epoll` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates `eventfd`/`epoll_ctl` failure; `Unsupported` off-Linux.
    pub fn new(epoll: &Epoll, token: u64) -> io::Result<Waker> {
        #[cfg(target_os = "linux")]
        {
            let fd = sys::new_eventfd()?;
            epoll.add(fd.as_raw_fd(), token, Interest::READABLE)?;
            Ok(Waker { fd })
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (epoll, token);
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "eventfd is linux-only",
            ))
        }
    }

    /// Makes the next (or current) `wait` return immediately. Safe to call
    /// from any thread; coalesces.
    ///
    /// # Errors
    ///
    /// Propagates the `write(2)` failure (never `EAGAIN`, which coalesces).
    pub fn wake(&self) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            sys::eventfd_write(self.fd.as_raw_fd())
        }
        #[cfg(not(target_os = "linux"))]
        {
            unreachable!("Waker cannot be constructed off-linux")
        }
    }

    /// Clears the pending wake after its event is observed.
    pub fn drain(&self) {
        #[cfg(target_os = "linux")]
        {
            sys::eventfd_drain(self.fd.as_raw_fd());
        }
    }
}

/// Raises the process soft `RLIMIT_NOFILE` to at least `min` (clamped to
/// the hard limit). Returns the resulting soft limit. Used by
/// many-connection stress tests; a no-op when the limit is already high
/// enough.
///
/// # Errors
///
/// Propagates `getrlimit`/`setrlimit` failure; `Unsupported` off-Linux.
pub fn raise_nofile_soft_limit(min: u64) -> io::Result<u64> {
    #[cfg(target_os = "linux")]
    {
        sys::raise_nofile(min)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = min;
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "rlimit adjustment is linux-only",
        ))
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let ep = Epoll::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&ep, 0).unwrap());
        let w2 = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w2.wake().unwrap();
        });
        let mut events = Events::with_capacity(4);
        let n = ep.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events.iter().next().unwrap().token, 0);
        waker.drain();
        t.join().unwrap();
    }

    #[test]
    fn timeout_expires_with_no_events() {
        let ep = Epoll::new().unwrap();
        let mut events = Events::with_capacity(4);
        let n = ep
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn socket_readability_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), 7, Interest::READABLE).unwrap();

        client.write_all(b"ping").unwrap();
        let mut events = Events::with_capacity(4);
        ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable);

        let mut buf = [0u8; 4];
        (&server).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // Interest can be switched to writable.
        ep.modify(server.as_raw_fd(), 7, Interest::WRITABLE)
            .unwrap();
        ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().next().unwrap().writable);
        ep.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn hangup_reports_readable_and_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), 1, Interest::READABLE).unwrap();
        drop(client);
        let mut events = Events::with_capacity(4);
        ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        let ev = events.iter().next().unwrap();
        assert!(ev.readable, "EOF must surface as readable");
    }

    #[test]
    fn nofile_limit_can_be_raised() {
        let got = raise_nofile_soft_limit(64).unwrap();
        assert!(got >= 64);
    }
}

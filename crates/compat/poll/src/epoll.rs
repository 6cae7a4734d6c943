//! Level-triggered `epoll(7)` backend through a thin hand-rolled FFI
//! layer. No `libc` crate is available offline, so the four syscall
//! wrappers the backend needs are declared directly; `std` already links
//! the C library on Linux, so the symbols resolve without any build
//! script. Cross-thread wakeups ride an `eventfd` registered under
//! [`crate::WAKE_TOKEN`].

use std::io;
use std::sync::Arc;
use std::time::Duration;

use crate::{Event, Interest, OsFd, Poller, Token, Waker, WAKE_TOKEN};

#[allow(non_camel_case_types)]
type c_int = i32;

// The kernel packs `struct epoll_event` on x86-64 (EPOLL_PACKED); other
// architectures use natural alignment. Getting this wrong corrupts the
// token on the way back out.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Owned `eventfd` descriptor shared between the poller and its
/// [`Waker`] clones; closed when the last handle drops.
pub(crate) struct EventFd {
    fd: OsFd,
}

impl EventFd {
    fn new() -> io::Result<EventFd> {
        // SAFETY: `eventfd` takes no pointers; a failure is a negative
        // return, which `cvt` turns into an error.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// Add 1 to the counter; wakes any `epoll_wait` watching the fd.
    /// Repeated signals coalesce (the counter saturates long before
    /// overflow matters) so this never blocks.
    pub(crate) fn signal(&self) {
        let one: u64 = 1;
        // SAFETY: the buffer is `one`, a live local of exactly the 8 bytes
        // passed as the count, and the kernel only reads it. `self.fd` is
        // open until this `EventFd` drops. A failed write (a saturated
        // counter) leaves no state to repair.
        let _ = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Reset the counter after a wakeup so level-triggered epoll stops
    /// reporting it.
    fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is a live, writable local of exactly the 8 bytes
        // passed as the count. `self.fd` is open until this `EventFd`
        // drops, and it is non-blocking, so an empty counter returns
        // `EAGAIN` rather than hanging.
        let _ = unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: this `EventFd` owns `fd` (opened in `new`, never
        // duplicated or closed elsewhere), and `drop` runs once, so the
        // descriptor is closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

fn interest_mask(interest: Interest) -> u32 {
    let mut mask = EPOLLRDHUP;
    if interest.readable {
        mask |= EPOLLIN;
    }
    if interest.writable {
        mask |= EPOLLOUT;
    }
    mask
}

/// The Linux production backend: one `epoll` instance, level-triggered.
pub struct EpollPoller {
    epfd: OsFd,
    wake: Arc<EventFd>,
    buf: Vec<EpollEvent>,
}

// Capacity of the kernel-event staging buffer per poll call; more ready
// descriptors than this simply surface on the next (immediate) poll.
const EVENT_BATCH: usize = 1024;

impl EpollPoller {
    pub fn new() -> io::Result<EpollPoller> {
        // SAFETY: `epoll_create1` takes no pointers; a failure is a
        // negative return, which `cvt` turns into an error.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        let wake = match EventFd::new() {
            Ok(w) => Arc::new(w),
            Err(e) => {
                // SAFETY: `epfd` was just opened above and no `EpollPoller`
                // owns it yet, so this is its only close.
                unsafe {
                    close(epfd);
                }
                return Err(e);
            }
        };
        let mut poller =
            EpollPoller { epfd, wake, buf: vec![EpollEvent { events: 0, data: 0 }; EVENT_BATCH] };
        poller.ctl(EPOLL_CTL_ADD, poller.wake.fd, WAKE_TOKEN, Interest::READABLE)?;
        Ok(poller)
    }

    fn ctl(&mut self, op: c_int, fd: OsFd, token: Token, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest_mask(interest), data: token as u64 };
        // SAFETY: `ev` is a live local `EpollEvent` laid out as the
        // kernel's `struct epoll_event` (packed on x86-64); the kernel
        // reads it during the call only. `self.epfd` is open while `self`
        // lives, and a bad `fd` is an error return, not undefined behaviour.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }
}

impl Poller for EpollPoller {
    fn name(&self) -> &'static str {
        "epoll"
    }

    fn register(&mut self, fd: OsFd, token: Token, interest: Interest) -> io::Result<()> {
        debug_assert_ne!(token, WAKE_TOKEN, "WAKE_TOKEN is reserved for the waker");
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    fn reregister(&mut self, fd: OsFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    fn deregister(&mut self, fd: OsFd, _token: Token) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`: `ev` is a live local in the kernel's layout
        // (ignored for `EPOLL_CTL_DEL` since Linux 2.6.9, but non-null for
        // older kernels), and `self.epfd` is open while `self` lives.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) if d.is_zero() => 0,
            // Round a sub-millisecond wait up so a short timeout never
            // degenerates into a busy spin.
            Some(d) => d.as_millis().clamp(1, c_int::MAX as u128) as c_int,
        };
        let n = loop {
            // SAFETY: the kernel writes at most `self.buf.len()` events
            // into `self.buf`, which is that long and borrowed mutably for
            // the call; `EpollEvent` is plain data in the kernel's layout,
            // so any bytes it writes are a valid value. `self.epfd` is open
            // while `self` lives.
            let ret = unsafe {
                epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as c_int, timeout_ms)
            };
            if ret >= 0 {
                break ret as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for raw in &self.buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let mask = raw.events;
            let token = raw.data as Token;
            if token == WAKE_TOKEN {
                self.wake.drain();
                events.push(Event { token, readable: true, writable: false });
                continue;
            }
            // Error/hangup conditions surface as ready-in-both-directions
            // so the caller attempts IO and observes the failure there.
            let broken = mask & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
            events.push(Event {
                token,
                readable: broken || mask & EPOLLIN != 0,
                writable: broken || mask & EPOLLOUT != 0,
            });
        }
        Ok(())
    }

    fn waker(&self) -> Waker {
        Waker::from_eventfd(Arc::clone(&self.wake))
    }
}

impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: this poller owns `epfd` (opened in `new`, never
        // duplicated or closed elsewhere), and `drop` runs once.
        unsafe {
            close(self.epfd);
        }
    }
}

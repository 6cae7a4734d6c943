//! Small OS helpers a high-connection-count frontend wants next to the
//! poller: file-descriptor limits, resident-set-size measurement, and
//! listener backlog widening. Everything degrades to a no-op (`None`)
//! off Linux — callers treat these as best-effort.

#[cfg(target_os = "linux")]
mod linux {
    #[allow(non_camel_case_types)]
    type c_int = i32;

    #[repr(C)]
    struct Rlimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    const RLIMIT_NOFILE: c_int = 7;

    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
        fn listen(sockfd: c_int, backlog: c_int) -> c_int;
        fn sysconf(name: c_int) -> i64;
    }

    const SC_PAGESIZE: c_int = 30;

    pub fn raise_nofile_limit() -> Option<u64> {
        let mut lim = Rlimit { rlim_cur: 0, rlim_max: 0 };
        // SAFETY: `lim` is a live, writable `#[repr(C)]` pair of `u64`s,
        // the layout of `struct rlimit` on 64-bit Linux, and the kernel
        // writes only that struct.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return None;
        }
        if lim.rlim_cur < lim.rlim_max {
            let raised = Rlimit { rlim_cur: lim.rlim_max, rlim_max: lim.rlim_max };
            // SAFETY: `raised` is a live `struct rlimit` (see above) that
            // the kernel only reads; a refused raise is a non-zero return.
            if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
                return Some(lim.rlim_max);
            }
        }
        Some(lim.rlim_cur)
    }

    pub fn current_rss_bytes() -> Option<u64> {
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
        // SAFETY: `sysconf` takes no pointers; an unknown name returns -1,
        // which the check below rejects.
        let page = unsafe { sysconf(SC_PAGESIZE) };
        if page <= 0 {
            return None;
        }
        Some(resident_pages * page as u64)
    }

    pub fn widen_backlog(fd: i32, backlog: i32) -> bool {
        // Calling listen() again on a listening socket just updates the
        // backlog on Linux.
        // SAFETY: `listen` takes no pointers; a bad or non-socket `fd` is
        // an error return, not undefined behaviour.
        unsafe { listen(fd, backlog) == 0 }
    }
}

/// Raise the process soft `RLIMIT_NOFILE` to its hard limit. Returns the
/// resulting soft limit, or `None` when the limit cannot be read
/// (non-Linux builds).
pub fn raise_nofile_limit() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        linux::raise_nofile_limit()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Current resident set size of this process in bytes (from
/// `/proc/self/statm`), or `None` when unavailable.
pub fn current_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        linux::current_rss_bytes()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Widen an already-listening socket's accept backlog (the `std`
/// listener binds with a small default, which a connection burst at C5K
/// scale overflows). Best-effort: returns whether the resize took.
pub fn widen_backlog(fd: crate::OsFd, backlog: i32) -> bool {
    #[cfg(target_os = "linux")]
    {
        linux::widen_backlog(fd, backlog)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (fd, backlog);
        false
    }
}

#[cfg(test)]
mod tests {
    #[cfg(target_os = "linux")]
    #[test]
    fn rss_and_nofile_report_sane_values() {
        let rss = super::current_rss_bytes().expect("statm readable on linux");
        assert!(rss > 0);
        let soft = super::raise_nofile_limit().expect("rlimit readable on linux");
        assert!(soft >= 64, "suspicious nofile limit {soft}");
    }
}

//! Memory: how much a process holds, and two allocator settings that keep
//! the *benchmark's own* process from paying the runner's page-fault toll.
//!
//! The runner is a microVM with free-page reporting: memory a process
//! frees goes back to the host within seconds, and touching it again
//! costs ~18 µs a page instead of ~2 µs. In-process workloads build and
//! drop a host every slice, so without these settings each slice would
//! re-fault its whole working set at a price that depends on what ran
//! before. Daemons are left at the allocator's defaults; the cluster
//! workloads are sized to grow less than the ~1.2 GB the guest keeps
//! warm, and [`cold_page_probe_us`] says whether that held.

use std::sync::OnceLock;
use std::time::Instant;

/// CPUs this process may run on, as of the first call — `main` asks
/// before anything is pinned, and pinning shrinks what the OS reports.
pub fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    use std::ffi::c_int;

    /// `struct mallinfo2` of glibc ≥ 2.33.
    #[repr(C)]
    #[derive(Default)]
    pub struct Mallinfo2 {
        pub arena: usize,
        pub ordblks: usize,
        pub smblks: usize,
        pub hblks: usize,
        pub hblkhd: usize,
        pub usmblks: usize,
        pub fsmblks: usize,
        pub uordblks: usize,
        pub fordblks: usize,
        pub keepcost: usize,
    }

    pub const M_TRIM_THRESHOLD: c_int = -1;
    pub const M_MMAP_THRESHOLD: c_int = -3;
    pub const PROT_READ_WRITE: c_int = 0x1 | 0x2;
    pub const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;

    extern "C" {
        pub fn mallopt(param: c_int, value: c_int) -> c_int;
        pub fn mallinfo2() -> Mallinfo2;
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> c_int;
        pub fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    }
}

/// Keeps freed heap memory in this process (no trimming back to the
/// kernel, no `mmap` per large allocation), so a host built after
/// another was dropped reuses pages that are already faulted in.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `mallopt` only stores two integers in the allocator's
    // parameters; it is called once, before any other thread exists.
    unsafe {
        glibc::mallopt(glibc::M_TRIM_THRESHOLD, i32::MAX);
        // The largest threshold glibc accepts (32 MiB on 64-bit).
        glibc::mallopt(glibc::M_MMAP_THRESHOLD, 32 << 20);
    }
}

/// Bytes this process's allocator has handed out and not got back
/// (heap chunks in use plus `mmap`ped blocks). Falls back to the
/// resident set size where glibc's `mallinfo2` is not available.
pub fn heap_in_use() -> u64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: `mallinfo2` takes no arguments and returns a plain
        // struct of counters by value.
        let info = unsafe { glibc::mallinfo2() };
        (info.uordblks + info.hblkhd) as u64
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    rss_of(std::process::id())
}

/// `VmRSS` of a process in bytes (0 if it is gone).
pub fn rss_of(pid: u32) -> u64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Mean first-touch cost of a page right now, in µs, over 32 MiB mapped
/// straight from the kernel (the allocator would hand back pages this
/// process has already touched). Around 2 while the guest still has warm
/// pages to give out; around 18 once a run has outgrown them — in which
/// case the daemons paid that toll during the timed phases too. 0 where
/// the probe is not available.
pub fn cold_page_probe_us() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const PAGE: usize = 4096;
        const PAGES: usize = 8192;
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases nothing; it is checked for failure,
        // written only inside its bounds, and unmapped before returning.
        unsafe {
            let block = glibc::mmap(
                std::ptr::null_mut(),
                PAGES * PAGE,
                glibc::PROT_READ_WRITE,
                glibc::MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            );
            if block as isize == -1 {
                return 0.0;
            }
            let started = Instant::now();
            for i in 0..PAGES {
                block.add(i * PAGE).write_volatile(1);
            }
            let us = started.elapsed().as_secs_f64() * 1e6 / PAGES as f64;
            glibc::munmap(block, PAGES * PAGE);
            us
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    0.0
}

/// Restricts process (or, with 0, the calling thread and every thread it
/// later spawns) `pid` to the CPUs in `mask` (bit i = CPU i). Returns
/// whether the kernel accepted it.
pub fn pin(pid: u32, mask: u64) -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: the mask pointer is valid for the 8 bytes announced, and
    // the call changes scheduling only.
    unsafe {
        glibc::sched_setaffinity(pid as i32, std::mem::size_of::<u64>(), &mask) == 0
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        let _ = (pid, mask);
        false
    }
}

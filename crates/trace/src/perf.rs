//! Optional Linux `perf_event` hardware counters (`perf-hooks` feature).
//!
//! Opens per-process cycle / instruction / cache-reference / cache-miss
//! counters with `inherit` set, so worker threads spawned after
//! [`start`] are included. Everything degrades to `None`: off-feature
//! builds, non-Linux targets, and kernels that refuse the events (e.g.
//! `perf_event_paranoid` too high, or a VM without a PMU) all simply
//! report no sample. Syscalls are issued directly via inline asm so the
//! crate stays free of libc.

/// One reading of the process-wide hardware counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfSample {
    pub cycles: u64,
    pub instructions: u64,
    pub cache_references: u64,
    pub cache_misses: u64,
}

impl PerfSample {
    /// Instructions per cycle (0 when cycles were not captured).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.cycles as f64
    }

    /// Cache miss ratio (0 when references were not captured).
    pub fn miss_ratio(&self) -> f64 {
        if self.cache_references == 0 {
            return 0.0;
        }
        self.cache_misses as f64 / self.cache_references as f64
    }

    /// JSON object with derived ratios included.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"cycles\":{},\"instructions\":{},\"cache_references\":{},",
                "\"cache_misses\":{},\"ipc\":{:.3},\"cache_miss_ratio\":{:.4}}}"
            ),
            self.cycles,
            self.instructions,
            self.cache_references,
            self.cache_misses,
            self.ipc(),
            self.miss_ratio(),
        )
    }
}

#[cfg(all(
    feature = "perf-hooks",
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::PerfSample;
    use std::sync::atomic::{AtomicI64, Ordering};

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const READ: usize = 0;
        pub const CLOSE: usize = 3;
        pub const IOCTL: usize = 16;
        pub const PERF_EVENT_OPEN: usize = 298;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const READ: usize = 63;
        pub const CLOSE: usize = 57;
        pub const IOCTL: usize = 29;
        pub const PERF_EVENT_OPEN: usize = 241;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall5(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize) -> isize {
        let ret;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall5(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize) -> isize {
        let ret;
        std::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            options(nostack),
        );
        ret
    }

    /// First 64 bytes of `struct perf_event_attr` (ABI version 0):
    /// enough for type/config/read_format and the flag bitfield.
    #[repr(C)]
    #[derive(Default)]
    struct PerfEventAttr {
        type_: u32,
        size: u32,
        config: u64,
        sample_period: u64,
        sample_type: u64,
        read_format: u64,
        flags: u64,
        wakeup_events: u32,
        bp_type: u32,
        config1: u64,
    }

    const PERF_TYPE_HARDWARE: u32 = 0;
    const ATTR_SIZE_VER0: u32 = 64;
    // Flag bit positions within the perf_event_attr bitfield.
    const FLAG_DISABLED: u64 = 1 << 0;
    const FLAG_INHERIT: u64 = 1 << 1;
    const FLAG_EXCLUDE_KERNEL: u64 = 1 << 5;
    const FLAG_EXCLUDE_HV: u64 = 1 << 6;
    const IOC_ENABLE: usize = 0x2400;
    const IOC_RESET: usize = 0x2403;

    /// Hardware event ids, paired with the `PerfSample` field order.
    const CONFIGS: [u64; 4] = [
        0, // PERF_COUNT_HW_CPU_CYCLES
        1, // PERF_COUNT_HW_INSTRUCTIONS
        2, // PERF_COUNT_HW_CACHE_REFERENCES
        3, // PERF_COUNT_HW_CACHE_MISSES
    ];

    /// Open fds for the four counters; -1 marks an event the kernel
    /// refused (that field reads as 0).
    static FDS: [AtomicI64; 4] = [
        AtomicI64::new(-2),
        AtomicI64::new(-2),
        AtomicI64::new(-2),
        AtomicI64::new(-2),
    ];

    fn open_one(config: u64) -> i64 {
        let attr = PerfEventAttr {
            type_: PERF_TYPE_HARDWARE,
            size: ATTR_SIZE_VER0,
            config,
            flags: FLAG_DISABLED | FLAG_INHERIT | FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV,
            ..Default::default()
        };
        let fd = unsafe {
            syscall5(
                nr::PERF_EVENT_OPEN,
                &attr as *const _ as usize,
                0,          // pid: this process
                usize::MAX, // cpu: any (-1)
                usize::MAX, // group_fd: none (-1)
                0,
            )
        };
        if fd < 0 {
            return -1;
        }
        unsafe {
            syscall5(nr::IOCTL, fd as usize, IOC_RESET, 0, 0, 0);
            syscall5(nr::IOCTL, fd as usize, IOC_ENABLE, 0, 0, 0);
        }
        fd as i64
    }

    // ORDERING(SHALOM-O-PERF-FD): Acquire loads observe a published fd before
    // it is used; the AcqRel CAS both claims the slot and publishes the fd the
    // winner opened (losers close theirs).
    pub fn start() -> bool {
        let mut any = false;
        for (slot, &config) in FDS.iter().zip(&CONFIGS) {
            if slot.load(Ordering::Acquire) == -2 {
                let fd = open_one(config);
                // Keep whoever won a racing start(); close our fd if beaten.
                if slot
                    .compare_exchange(-2, fd, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                    && fd >= 0
                {
                    unsafe { syscall5(nr::CLOSE, fd as usize, 0, 0, 0, 0) };
                }
            }
            any |= slot.load(Ordering::Acquire) >= 0;
        }
        any
    }

    fn read_fd(fd: i64) -> u64 {
        if fd < 0 {
            return 0;
        }
        let mut value: u64 = 0;
        let n = unsafe {
            syscall5(
                nr::READ,
                fd as usize,
                &mut value as *mut u64 as usize,
                8,
                0,
                0,
            )
        };
        if n == 8 {
            value
        } else {
            0
        }
    }

    // ORDERING(SHALOM-O-PERF-FD): Acquire pairs with the publishing CAS in
    // `start`, so a visible fd is fully opened before we read it.
    pub fn sample() -> Option<PerfSample> {
        let fds: Vec<i64> = FDS.iter().map(|f| f.load(Ordering::Acquire)).collect();
        if fds.iter().all(|&f| f < 0) {
            return None;
        }
        Some(PerfSample {
            cycles: read_fd(fds[0]),
            instructions: read_fd(fds[1]),
            cache_references: read_fd(fds[2]),
            cache_misses: read_fd(fds[3]),
        })
    }
}

#[cfg(not(all(
    feature = "perf-hooks",
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::PerfSample;

    pub fn start() -> bool {
        false
    }

    pub fn sample() -> Option<PerfSample> {
        None
    }
}

/// Open and enable the process-wide hardware counters. Idempotent.
/// Returns `true` if at least one event was accepted by the kernel;
/// `false` on unsupported platforms, off-feature builds, or refusal.
pub fn start() -> bool {
    imp::start()
}

/// Read the counters. `None` unless [`start`] succeeded for some event.
/// Values accumulate from the moment of [`start`]; diff two samples to
/// bracket a region.
pub fn sample() -> Option<PerfSample> {
    imp::sample()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_none_before_start() {
        // Never calls start(), so regardless of feature/platform the
        // derived-ratio paths must behave on the zero sample.
        let s = PerfSample::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.miss_ratio(), 0.0);
        let j = s.to_json();
        assert!(j.contains("\"cycles\":0"), "{j}");
    }

    #[cfg(feature = "perf-hooks")]
    #[test]
    fn start_then_sample_is_graceful() {
        // On kernels that allow it we get monotone counters; on kernels
        // that refuse, both calls are no-ops. Either way: no crash.
        let ok = start();
        let s = sample();
        assert_eq!(ok, s.is_some());
        if let Some(first) = s {
            // Burn some instructions.
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(acc);
            let second = sample().unwrap();
            assert!(second.instructions >= first.instructions);
        }
    }
}

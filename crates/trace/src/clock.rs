//! Cheap monotonic time for span measurement.
//!
//! Uses the raw cycle counter where user-space reads are architecturally
//! guaranteed (`cntvct_el0` on ARMv8, `rdtsc` on x86_64), calibrated once
//! against `std::time::Instant`, and plain `Instant` elsewhere. The point
//! is that a pack/compute span costs two register reads, not two syscalls.

use std::sync::OnceLock;
use std::time::Instant;

/// Raw tick source, in arbitrary units.
#[inline]
fn raw_ticks() -> u64 {
    #[cfg(target_arch = "aarch64")]
    unsafe {
        let t: u64;
        // Virtual counter; user-space readable, constant-rate on ARMv8.
        std::arch::asm!("mrs {t}, cntvct_el0", t = out(reg) t, options(nomem, nostack));
        t
    }
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::x86_64::_rdtsc()
    }
    #[cfg(not(any(target_arch = "aarch64", target_arch = "x86_64")))]
    {
        epoch().elapsed().as_nanos() as u64
    }
}

#[cfg(not(any(target_arch = "aarch64", target_arch = "x86_64")))]
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

struct Calibration {
    ticks_at_epoch: u64,
    ns_per_tick: f64,
}

fn calibration() -> &'static Calibration {
    static CAL: OnceLock<Calibration> = OnceLock::new();
    CAL.get_or_init(|| {
        #[cfg(target_arch = "aarch64")]
        {
            // cntfrq_el0 reports the counter frequency directly; no
            // measurement window needed.
            let hz: u64;
            unsafe {
                std::arch::asm!("mrs {f}, cntfrq_el0", f = out(reg) hz, options(nomem, nostack));
            }
            if hz > 0 {
                return Calibration {
                    ticks_at_epoch: raw_ticks(),
                    ns_per_tick: 1e9 / hz as f64,
                };
            }
        }
        // Measure the tick rate against Instant over a short window.
        let i0 = Instant::now();
        let t0 = raw_ticks();
        let mut elapsed;
        loop {
            elapsed = i0.elapsed();
            if elapsed.as_micros() >= 2_000 {
                break;
            }
            std::hint::spin_loop();
        }
        let t1 = raw_ticks();
        let dt = (t1 - t0).max(1);
        Calibration {
            ticks_at_epoch: t0,
            ns_per_tick: elapsed.as_nanos() as f64 / dt as f64,
        }
    })
}

/// Monotonic nanoseconds since the first clock use.
///
/// Two calls in the same thread are ordered; absolute values are only
/// meaningful as differences.
#[inline]
pub fn now_ns() -> u64 {
    let cal = calibration();
    let dt = raw_ticks().wrapping_sub(cal.ticks_at_epoch);
    (dt as f64 * cal.ns_per_tick) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_and_roughly_wall_clock() {
        let a = now_ns();
        let i = Instant::now();
        while i.elapsed().as_micros() < 5_000 {
            std::hint::spin_loop();
        }
        let b = now_ns();
        assert!(b > a, "clock went backwards: {a} -> {b}");
        let span = b - a;
        // 5 ms busy-wait should read as 1..100 ms even on a noisy box.
        assert!(
            (1_000_000..100_000_000).contains(&span),
            "implausible span {span} ns for a 5 ms wait"
        );
    }
}

//! Process CPU time. On a shared virtual machine the host can withhold
//! the vCPUs for long stretches (steal time above 50% was measured on
//! the 2-vCPU box this benchmark was built on), which stretches wall
//! times twofold from one run to the next. The kernel leaves steal out
//! of a process's CPU clock, so CPU time measures the program's own work
//! steadily; the gated timings use it and wall times are printed beside.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU seconds consumed so far by every thread of this process, exited
/// threads included; NaN if the clock cannot be read.
#[must_use]
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed so far by the calling thread; NaN if the clock
/// cannot be read.
#[must_use]
pub fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

fn clock_s(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `long`s on
    // Linux) for the whole call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_clock_advances_with_work() {
        let before = super::process_cpu_s();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        let after = super::process_cpu_s();
        assert!(after > before, "{before} -> {after} ({x})");
    }
}

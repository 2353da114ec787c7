//! Timing, order statistics and resource readings shared by every
//! workload.

use landlord_obs::HistogramSnapshot;
use std::time::Instant;

/// Nanoseconds elapsed since `start`, saturating.
pub fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Clocks of `clock_gettime(2)` that count CPU time, not wall time.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU clocks through the 64-bit Linux `clock_gettime` ABI");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

// The standard library has no CPU-time clock and no `libc` crate is
// vendored, so this one foreign call is the package's only `unsafe`
// (the workspace's no-unsafe audit rule covers `crates/`, not this
// package).
extern "C" {
    /// From the C library every Rust program on Linux links.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`, the only memory
    // `clock_gettime` writes.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time the calling thread has run, in nanoseconds. Time the
/// hypervisor stole from the virtual CPU and time the thread spent
/// blocked (on a lock, a condition variable or the disk) are not in it.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of this process has run, exited threads
/// included, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// One request's timings, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall time from call to return.
    pub wall_ns: u64,
    /// CPU time the calling thread ran between call and return.
    pub cpu_ns: u64,
    /// Completion time since the phase began (wall).
    pub done_ns: u64,
}

/// Wall and CPU clocks read as a request is issued.
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    /// Read both clocks now.
    pub fn start() -> Self {
        let cpu_ns = thread_cpu_ns();
        Stopwatch {
            wall: Instant::now(),
            cpu_ns,
        }
    }

    /// The request's [`Sample`], in a phase that began at `phase_start`.
    pub fn stop(&self, phase_start: Instant) -> Sample {
        let now = Instant::now();
        let cpu_ns = thread_cpu_ns().saturating_sub(self.cpu_ns);
        let ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        Sample {
            wall_ns: ns(now - self.wall),
            cpu_ns,
            done_ns: ns(now - phase_start),
        }
    }

    /// When the request was issued.
    pub fn issued(&self) -> Instant {
        self.wall
    }
}

/// Quantile `q` of `samples` by linear interpolation between order
/// statistics (0 when empty). Sorts a copy.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted_quantile(&sorted, q)
}

/// [`quantile`] on samples already sorted ascending.
pub fn sorted_quantile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = rank - lo as f64;
            sorted[lo] as f64 + frac * (sorted[hi] as f64 - sorted[lo] as f64)
        }
    }
}

/// Mean of floating-point readings (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Median of floating-point readings (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Quantile `q` of a log2-bucketed histogram exported by
/// `landlord-obs`, interpolated linearly inside the bucket that holds
/// it (the crate's own `p50`/`p99` report bucket upper bounds, which
/// move only in powers of two). 0 when empty.
pub fn hist_quantile(hist: &HistogramSnapshot, q: f64) -> f64 {
    if hist.count == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * hist.count as f64;
    let mut below = 0u64;
    for (index, &count) in hist.buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if (below + count) as f64 >= rank {
            // Bucket 0 holds exactly 0; bucket i >= 1 holds
            // [2^(i-1), 2^i - 1].
            if index == 0 {
                return 0.0;
            }
            let lo = (1u128 << (index - 1)) as f64;
            let hi = ((1u128 << index) - 1) as f64;
            let frac = (rank - below as f64) / count as f64;
            let value = lo + frac * (hi - lo);
            return value.clamp(hist.min as f64, hist.max as f64);
        }
        below += count;
    }
    hist.max as f64
}

/// Mean of a histogram's observations (0 when empty).
pub fn hist_mean(hist: &HistogramSnapshot) -> f64 {
    if hist.count == 0 {
        0.0
    } else {
        hist.sum as f64 / hist.count as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7], 0.99), 7.0);
        assert_eq!(quantile(&[4, 1, 3, 2], 0.5), 2.5);
        assert_eq!(quantile(&[1, 2, 3, 4, 5], 1.0), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn cpu_clocks_advance_with_work_and_not_with_sleep() {
        let watch = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        std::thread::sleep(std::time::Duration::from_millis(50));
        let sample = watch.stop(watch.issued());
        assert!(sample.cpu_ns > 0);
        assert!(sample.wall_ns >= sample.cpu_ns + 40_000_000, "{sample:?}");
        assert!(process_cpu_ns() >= thread_cpu_ns());
    }

    #[test]
    fn histogram_quantile_stays_inside_the_bucket() {
        let hist = landlord_obs::Histogram::new();
        for v in [100u64, 110, 120, 5000] {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let p50 = hist_quantile(&snap, 0.5);
        assert!((64.0..=127.0).contains(&p50), "p50 {p50}");
        assert!(hist_quantile(&snap, 1.0) <= 5000.0);
        assert_eq!(hist_mean(&snap), 5330.0 / 4.0);
    }
}

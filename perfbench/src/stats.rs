//! Sample quantiles, call accounting, the output fingerprint and peak
//! memory.

use std::fmt::Debug;
use std::time::Duration;

use vcgra_repro::logic::SplitMix64;

/// A set of measurements with nearest-rank quantiles.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_duration(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`); 0 for no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Job figures over consecutive windows of at least `size` jobs: the
/// process CPU time per job, and the wall-clock throughput and latency.
/// Each figure is a median over windows, so a burst of contention from
/// outside the program moves a few windows, not the result.
#[derive(Debug)]
pub struct Windows {
    size: usize,
    open: Samples,
    open_s: f64,
    open_cpu_s: f64,
    cpu_per_job: Samples,
    rates: Samples,
    p50: Samples,
    p99: Samples,
    /// Every job latency, for the report.
    pub all: Samples,
    /// Wall seconds of every batch recorded.
    pub seconds: f64,
}

impl Windows {
    pub fn new(size: usize) -> Self {
        Windows {
            size,
            open: Samples::default(),
            open_s: 0.0,
            open_cpu_s: 0.0,
            cpu_per_job: Samples::default(),
            rates: Samples::default(),
            p50: Samples::default(),
            p99: Samples::default(),
            all: Samples::default(),
            seconds: 0.0,
        }
    }

    /// Records a batch of jobs that took `seconds` of wall time and
    /// `cpu_seconds` of process CPU time together.
    pub fn record(&mut self, latencies: &[f64], seconds: f64, cpu_seconds: f64) {
        for &l in latencies {
            self.open.push(l);
            self.all.push(l);
        }
        self.open_s += seconds;
        self.open_cpu_s += cpu_seconds;
        self.seconds += seconds;
        if self.open.len() >= self.size {
            self.close();
        }
    }

    fn close(&mut self) {
        let jobs = self.open.len() as f64;
        self.cpu_per_job.push(ratio(self.open_cpu_s, jobs));
        self.rates.push(ratio(jobs, self.open_s));
        self.p50.push(self.open.median());
        self.p99.push(self.open.quantile(0.99));
        self.open = Samples::default();
        self.open_s = 0.0;
        self.open_cpu_s = 0.0;
    }

    /// Publishes `cpu_ms_per_job` and reports the wall-clock
    /// `jobs_per_s`, `job_p50_ms` and `job_p99_ms`: medians over the
    /// windows (a run too short for one full window counts as one).
    pub fn publish(&mut self, out: &mut crate::Outcome) {
        if self.rates.is_empty() && !self.open.is_empty() {
            self.close();
        }
        out.set("cpu_ms_per_job", ms(self.cpu_per_job.median()));
        out.show("jobs_per_s", self.rates.median(), "1/s");
        out.show("job_p50_ms", ms(self.p50.median()), "ms");
        out.show("job_p99_ms", ms(self.p99.median()), "ms");
    }

    /// Wall-clock jobs per second: the median over windows.
    pub fn jobs_per_s(&self) -> f64 {
        self.rates.median()
    }
}

/// CPU time this process has used, in seconds: every thread, exited
/// ones included. The kernel leaves out time a hypervisor took the
/// virtual CPU away (steal), which wall-clock time counts, so on a
/// shared host CPU time measures the program's work more steadily.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live `struct timespec` (two 64-bit fields on
    // 64-bit Linux) that the call only writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the process CPU clock of 64-bit Linux");

/// Wall and process CPU seconds since it started.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: std::time::Instant::now(),
            cpu: cpu_s(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        cpu_s() - self.cpu
    }
}

/// Counts public calls into the program and those that failed.
#[derive(Debug, Default)]
pub struct Calls {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl Calls {
    /// Counts one call; returns its value on success.
    pub fn check<T, E: Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error
                    .get_or_insert_with(|| format!("{what}: {e:?}"));
                None
            }
        }
    }

    /// Counts one infallible call.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Draws kinds `0..n` in blocks that hold every kind `copies` times in a
/// seeded order: every seed sees the same mix, only the order differs, so
/// a run's averages do not hinge on which kinds the seed happened to draw.
pub struct Deck {
    n: usize,
    copies: usize,
    rng: SplitMix64,
    block: Vec<usize>,
}

impl Deck {
    pub fn new(n: usize, copies: usize, seed: u64) -> Self {
        assert!(n > 0 && copies > 0, "a deck needs cards");
        Deck {
            n,
            copies,
            rng: SplitMix64::new(seed),
            block: Vec::new(),
        }
    }

    pub fn draw(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = (0..self.n * self.copies).map(|i| i % self.n).collect();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("a refilled block is non-empty")
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Seconds to microseconds.
pub fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// Seconds to milliseconds.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.99), 5.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn process_cpu_time_counts_work_on_other_threads() {
        let spin = |n: u64| (0..n).fold(0u64, |a, i| std::hint::black_box(a ^ i.wrapping_mul(a | 1)));
        let t = Stopwatch::start();
        std::thread::scope(|s| {
            s.spawn(|| spin(20_000_000));
        });
        let (cpu, wall) = (t.cpu_s(), t.wall_s());
        assert!(
            cpu >= 0.25 * wall && cpu <= 2.0 * wall + 0.05,
            "a spinning thread used {cpu} s of CPU in {wall} s"
        );
        let idle = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(idle.cpu_s() < 0.025, "sleeping used {} s of CPU", idle.cpu_s());
    }
}

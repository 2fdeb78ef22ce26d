//! Small helpers shared by the workloads: a seeded generator, host-speed
//! readings, order statistics, resident-memory readings and the run
//! outcome.

/// splitmix64: a seeded, dependency-free generator. Every input the
/// benchmark feeds the program is drawn from one of these.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Per-thread time, in ms, of [`reference_work`] at the host speed that
/// scaled timings are expressed at: about its median time on the VM the
/// benchmark was sized on (2 vCPUs of a 2.1 GHz Xeon host).
pub const REFERENCE_MS: f64 = 8.0;

/// A fixed computation of the benchmark's own, independent of the program:
/// random keys sorted in place and inserted into an open-addressing table,
/// on the stack, so it allocates nothing and leaves no memory behind.
fn reference_work(seed: u64) -> u64 {
    let mut rng = Rng::new(seed);
    let mut keys = [0u64; 8192];
    let mut table = [0u64; 16384];
    let mut sum = 0u64;
    for _ in 0..28 {
        keys.iter_mut().for_each(|k| *k = rng.next_u64() | 1);
        keys.sort_unstable();
        table.fill(0);
        for &k in &keys {
            let mut i = (k >> 17) as usize & 16383;
            while table[i] != 0 && table[i] != k {
                i = (i + 1) & 16383;
            }
            table[i] = k;
        }
        for &k in &keys {
            let slot = table[(k.rotate_left(13) >> 17) as usize & 16383];
            sum = if slot & 4 == 0 {
                sum.wrapping_add(slot)
            } else {
                sum ^ k
            };
        }
    }
    sum
}

/// One reading of the host's speed: [`reference_work`] on `THREADS`
/// threads at once, as the CPU-bound workloads compute; the mean
/// per-thread time, in s.
pub fn reference_s() -> f64 {
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..crate::THREADS as u64)
            .map(|seed| {
                std::thread::Builder::new()
                    .stack_size(1 << 20)
                    .spawn_scoped(scope, move || {
                        let start = std::time::Instant::now();
                        std::hint::black_box(reference_work(seed));
                        start.elapsed().as_secs_f64()
                    })
                    .expect("spawn a reference thread")
            })
            .collect();
        let total: f64 = threads
            .into_iter()
            .map(|t| t.join().expect("reference thread"))
            .sum();
        total / crate::THREADS as f64
    })
}

/// Scales CPU-bound timings to the reference host speed. The VM the
/// benchmark runs on shares its host: for tens of seconds at a time its
/// vCPUs run up to 40% slower, which moved whole runs of unchanged code by
/// a quarter. Each timing is multiplied by [`REFERENCE_MS`] over the
/// reference time read around it, so what is left is the program's cost
/// relative to fixed code; a change to the program moves it in full.
pub struct HostSpeed {
    last: f64,
    readings: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let last = reference_s();
        HostSpeed {
            last,
            readings: vec![last],
        }
    }

    /// `wall` (s), timed since the previous reading, scaled by the mean of
    /// that reading and one taken now.
    pub fn scale(&mut self, wall: f64) -> f64 {
        let now = reference_s();
        let speed = (self.last + now) / 2.0;
        self.last = now;
        self.readings.push(now);
        wall * REFERENCE_MS * 1e-3 / speed
    }

    /// The median reading, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.readings) * 1e3
    }
}

/// Percentile (`p` in `0..=1`) of unsorted samples, interpolated linearly
/// between the two nearest order statistics.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set (`VmHWM`) of a process, in MiB; `pid` is a number or
/// `self`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset a process's `VmHWM` to its current resident set, so the next
/// reading is the peak of what ran in between.
pub fn reset_peak_rss(pid: &str) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// The peak resident set of `pids` over `f`, in MiB, summed.
pub fn peak_rss_during<T>(pids: &[String], f: impl FnOnce() -> T) -> (T, f64) {
    pids.iter().for_each(|p| reset_peak_rss(p));
    let out = f();
    (out, pids.iter().filter_map(|p| peak_rss_mb(p)).sum())
}

/// One metric of a result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Input sizes and counts for the provenance record.
    pub counts: Vec<(&'static str, u64)>,
    /// Why an output was judged wrong, one line each (printed to stderr).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

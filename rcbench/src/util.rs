//! Small shared helpers: a seeded generator, FNV fingerprints, sample
//! statistics, and process facts.

use std::time::Instant;

/// SplitMix64: tiny, seedable, and stable across platforms, so the same
/// `--seed` always generates the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream` (one stream per
    /// caller thread or input family).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next_u64();
        rng
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

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 64-bit FNV-1a over a sequence of text lines (each line terminated),
/// the fingerprint recorded with every generated input list.
pub fn fingerprint<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Nearest-rank percentile (`0 < q <= 1`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Length of the slices of the measured phase that throughput and
/// latency are taken over (see [`Recorder`]).
const SLICE_SECONDS: f64 = 1.0;

/// Latencies kept per slice and caller.
const RESERVOIR: usize = 8_000;

/// One closed-loop caller's request timings in bounded memory, so the
/// benchmark's own footprint does not grow with the request count and
/// leak into `peak_rss_mb`: a count per one-second slice plus a uniform
/// reservoir sample of the slice's latencies.
pub struct Recorder {
    width: f64,
    counts: Vec<u64>,
    samples: Vec<Vec<f32>>,
    rng: Rng,
}

impl Recorder {
    /// A recorder for a measured phase of `seconds`, sampling with `rng`.
    pub fn new(seconds: f64, rng: Rng) -> Recorder {
        let slices = ((seconds / SLICE_SECONDS).round() as usize).max(1);
        Recorder {
            width: seconds / slices as f64,
            counts: vec![0; slices],
            samples: (0..slices).map(|_| Vec::with_capacity(RESERVOIR)).collect(),
            rng,
        }
    }

    /// Records one request completed `at_s` into the phase.
    pub fn record(&mut self, at_s: f64, latency_us: f64) {
        let i = ((at_s / self.width) as usize).min(self.counts.len() - 1);
        self.counts[i] += 1;
        let slice = &mut self.samples[i];
        if slice.len() < RESERVOIR {
            slice.push(latency_us as f32);
        } else {
            let j = self.rng.below(self.counts[i] as usize);
            if j < RESERVOIR {
                slice[j] = latency_us as f32;
            }
        }
    }

    pub fn requests(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The medians over the time slices of their throughput (1/s), p50
    /// and p99 latency (µs), across all callers: a burst of outside
    /// interference moves one slice, not the result.
    pub fn summarize(callers: &[&Recorder]) -> (f64, f64, f64) {
        let (mut ops, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..callers[0].counts.len() {
            let count: u64 = callers.iter().map(|c| c.counts[i]).sum();
            let slice: Vec<f64> = callers
                .iter()
                .flat_map(|c| c.samples[i].iter().map(|&l| f64::from(l)))
                .collect();
            ops.push(count as f64 / callers[0].width);
            p50.push(median(&slice));
            p99.push(percentile(&slice, 0.99));
        }
        (median(&ops), median(&p50), median(&p99))
    }
}

/// A running geometric mean of positive values.
#[derive(Debug, Default, Clone, Copy)]
pub struct GeoMean {
    log_sum: f64,
    count: usize,
}

impl GeoMean {
    pub fn add(&mut self, value: f64) {
        self.log_sum += value.ln();
        self.count += 1;
    }

    pub fn merge(&mut self, other: GeoMean) {
        self.log_sum += other.log_sum;
        self.count += other.count;
    }

    pub fn count(&self) -> usize {
        self.count
    }

    /// The geometric mean (0 when empty).
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.log_sum / self.count as f64).exp()
        }
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Microseconds since `t`.
pub fn micros_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Executor and daemon workers: one per CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

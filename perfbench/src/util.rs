//! Seeded randomness, input digests, order statistics and host probes.

use sparseopt_core::prelude::CsrMatrix;
use std::time::Instant;

/// SplitMix64: a small, fully specified generator, so every input the
/// benchmark makes is a pure function of the workload seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponentially distributed gap with the given mean (Poisson arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.range(-1.0, 1.0)).collect()
    }
}

/// FNV-1a over the generated inputs: the determinism self-test compares it
/// across generations of one seed and against a neighbouring seed.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64s(&mut self, v: &[f64]) {
        for x in v {
            self.u64(x.to_bits());
        }
    }

    pub fn csr(&mut self, m: &CsrMatrix) {
        self.u64(m.nrows() as u64);
        self.u64(m.ncols() as u64);
        for &p in m.rowptr() {
            self.u64(p as u64);
        }
        for &c in m.colind() {
            self.bytes(&c.to_le_bytes());
        }
        self.f64s(m.values());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median seconds of `reps` calls of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// `(|A|·|x|)_i` per row: the scale of each row's rounding error, so a
/// reference comparison stays meaningful when a row's sum cancels.
pub fn abs_row_scale(m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    (0..m.nrows())
        .map(|r| {
            m.row_cols(r)
                .iter()
                .zip(m.row_vals(r))
                .map(|(&c, v)| (v * x[c as usize]).abs())
                .sum()
        })
        .collect()
}

/// Relative tolerance every served or streamed result must meet against the
/// serial reference, per row and scaled by [`abs_row_scale`].
pub const REL_TOL: f64 = 1e-12;

/// True when `got` matches `want` row by row within [`REL_TOL`].
pub fn rows_match(got: &[f64], want: &[f64], scale: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .zip(scale)
            .all(|((g, w), s)| (g - w).abs() <= REL_TOL * s + f64::MIN_POSITIVE)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Cache sizes of CPU 0 from sysfs: `(L2 bytes, last-level bytes)`.
pub fn cache_sizes() -> (usize, usize) {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let (mut l2, mut llc, mut llc_level) = (0usize, 0usize, 0u32);
    for idx in 0..8 {
        let dir = base.join(format!("index{idx}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
        let (level, kind, size) = (read("level"), read("type"), read("size"));
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<usize>().unwrap_or(0) * 1024
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<usize>().unwrap_or(0) * 1024 * 1024
        } else {
            size.parse().unwrap_or(0)
        };
        if level == 2 {
            l2 = bytes;
        }
        if level >= llc_level {
            llc_level = level;
            llc = bytes;
        }
    }
    (l2, llc)
}

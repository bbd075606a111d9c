//! Small statistics and process helpers: order statistics, a seeded
//! generator, peak memory.

use std::time::{Duration, Instant};

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Nanoseconds in `d`, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of input randomness, so one
/// `--seed` fixes every generated input.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn splitmix_repeats_for_a_seed() {
        let a: Vec<u64> = (0..4).scan(SplitMix::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(SplitMix::new(7), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        let x = SplitMix::new(1).uniform(2.0, 3.0);
        assert!((2.0..3.0).contains(&x));
    }
}

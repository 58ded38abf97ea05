//! Seeded input generation: a SplitMix64 stream, Poisson arrival schedules
//! and a Zipf rank sampler. Everything the benchmark feeds the program is
//! drawn from these, so one `--seed` fixes every input.

/// SplitMix64 (Steele, Lea and Flood 2014): tiny, fast and well mixed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed, stream))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Derives an independent 64-bit value from `(a, b)`; used to turn the run
/// seed plus a replicate or phase index into a sub-seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut r = Rng(a ^ b.rotate_left(32) ^ 0xD1B5_4A32_D192_ED03);
    r.next_u64() ^ r.next_u64().rotate_left(17)
}

/// Send offsets, in seconds from the start of a phase, of `n` Poisson
/// arrivals at `rate` per second (exponential gaps).
pub fn poisson_offsets(rng: &mut Rng, rate: f64, n: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate;
            t
        })
        .collect()
}

/// Samples ranks `0..n` with probability proportional to `1 / (rank+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8, 1);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn poisson_schedule_is_deterministic_and_has_the_asked_rate() {
        let s1 = poisson_offsets(&mut Rng::new(3, 0), 2000.0, 20_000);
        let s2 = poisson_offsets(&mut Rng::new(3, 0), 2000.0, 20_000);
        assert_eq!(s1, s2);
        assert_ne!(s1, poisson_offsets(&mut Rng::new(4, 0), 2000.0, 20_000));
        assert!(s1.windows(2).all(|w| w[1] >= w[0]), "offsets ascend");
        let rate = s1.len() as f64 / s1.last().unwrap();
        assert!((rate / 2000.0 - 1.0).abs() < 0.03, "measured rate {rate}");
        // Exponential gaps: the coefficient of variation is about 1.
        let gaps: Vec<f64> = s1.windows(2).map(|w| w[1] - w[0]).collect();
        let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / m - 1.0).abs() < 0.05);
    }

    #[test]
    fn zipf_is_deterministic_skewed_and_in_range() {
        let z = Zipf::new(1000, 1.1);
        let draw = |seed| {
            let mut r = Rng::new(seed, 9);
            (0..50_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        assert!(a.iter().all(|&k| k < 1000));
        let mut counts = vec![0usize; 1000];
        for &k in &a {
            counts[k] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[99]);
        // P(rank 0) = 1 / H(1000, 1.1).
        let h: f64 = (1..=1000).map(|k| (k as f64).powf(-1.1)).sum();
        let p0 = counts[0] as f64 / a.len() as f64;
        assert!((p0 * h - 1.0).abs() < 0.05, "p0 {p0}");
    }
}

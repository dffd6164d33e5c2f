//! SplitMix64: the benchmark's only source of randomness. Everything a
//! run sends or solves derives from `--seed` through this generator, so
//! the same seed gives byte-identical inputs on every machine.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed (`salt` separates the
    /// streams of one run, e.g. setup tasks from window arrivals).
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival time of a Poisson process of `rate`.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// The uniform task family of the serve workloads and the dense slice:
/// `V ∈ [1,10]`, `w ∈ [1,5]`, `δ ∈ [1,8]` (machine `P = 16`).
pub fn uniform_task(rng: &mut Rng) -> (f64, f64, f64) {
    (
        rng.range(1.0, 10.0),
        rng.range(1.0, 5.0),
        rng.range(1.0, 8.0),
    )
}

/// The same family quantized to a 1/64 grid, so every value is dyadic and
/// lifts to `bigratio::Rational` with small numerators.
pub fn quantized_task(rng: &mut Rng) -> (f64, f64, f64) {
    let q = |x: f64| (x * 64.0).round() / 64.0;
    let (v, w, d) = uniform_task(rng);
    (q(v), q(w), q(d))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, salt: u64) -> Vec<u64> {
        let mut r = Rng::new(seed, salt);
        (0..8).map(|_| r.next_u64()).collect()
    }

    #[test]
    fn same_seed_same_stream_and_salts_separate_streams() {
        assert_eq!(draws(7, 1), draws(7, 1));
        assert_ne!(draws(7, 1), draws(7, 2));
        assert_ne!(draws(7, 1), draws(8, 1));
    }

    #[test]
    fn families_stay_in_range() {
        let mut r = Rng::new(3, 0);
        for _ in 0..1000 {
            let (v, w, d) = uniform_task(&mut r);
            assert!((1.0..10.0).contains(&v) && (1.0..5.0).contains(&w) && (1.0..8.0).contains(&d));
            let (v, w, d) = quantized_task(&mut r);
            for x in [v, w, d] {
                assert_eq!((x * 64.0).fract(), 0.0);
            }
        }
    }
}

//! A small deterministic PCG32 generator.
//!
//! Workload streams, probe sequences and replay blocks must be
//! bit-reproducible across platforms and releases (every experiment table
//! and every guard incident is derived from them), so the workspace
//! embeds its own 40-line PCG32 instead of depending on an external RNG
//! whose stream might change between major versions.
//!
//! Every method is `#[inline]`: the hot callers (the workload and
//! replay-block generators) live in other crates, and without the hint
//! each draw would be an out-of-line call.

/// PCG-XSH-RR 64/32 (O'Neill 2014).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    /// Creates a generator from a seed and stream id.
    #[inline]
    pub fn new(seed: u64, stream: u64) -> Pcg32 {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Next 32 uniformly distributed bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(6364136223846793005).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn gen_range(&mut self, n: u32) -> u32 {
        assert!(n > 0, "gen_range requires a non-empty range");
        // Lemire-style rejection to avoid modulo bias.
        let threshold = n.wrapping_neg() % n;
        loop {
            let value = self.next_u32();
            let product = u64::from(value) * u64::from(n);
            if (product as u32) >= threshold {
                return (product >> 32) as u32;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        f64::from(self.next_u32()) / f64::from(u32::MAX as u64 as u32) / (1.0 + f64::EPSILON)
    }

    /// Picks an index with probability proportional to `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    #[inline]
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut target = self.gen_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Pcg32::new(42, 7);
        let mut b = Pcg32::new(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::new(1, 7);
        let mut b = Pcg32::new(2, 7);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers_values() {
        let mut rng = Pcg32::new(3, 1);
        let mut seen = [false; 8];
        for _ in 0..400 {
            let v = rng.gen_range(8) as usize;
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weighted_pick_tracks_weights() {
        let mut rng = Pcg32::new(9, 2);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[rng.pick_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.0..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn gen_f64_is_in_unit_interval() {
        let mut rng = Pcg32::new(5, 5);
        for _ in 0..100 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    /// The first eight outputs of two streams, recorded before the probe
    /// engine's copy of this generator was folded into it: a change to
    /// the constants, the seeding or the output function breaks them.
    #[test]
    fn known_answers_pin_the_stream() {
        let first8 = |seed, stream| {
            let mut rng = Pcg32::new(seed, stream);
            (0..8).map(|_| rng.next_u32()).collect::<Vec<_>>()
        };
        assert_eq!(
            first8(0x4d44_4553, 1),
            [
                0x0d9a_6112,
                0x656e_cce9,
                0x354f_66b8,
                0x235c_73b9,
                0xfac1_2402,
                0xe67c_18a0,
                0x95bd_d852,
                0x7782_b4e6,
            ]
        );
        assert_eq!(
            first8(0xC0FFEE, 0x20),
            [
                0x9553_2824,
                0x188f_187f,
                0x0c82_c85b,
                0x663e_5a0c,
                0x9630_3aac,
                0x0547_49eb,
                0x3d53_3da8,
                0x0b97_e9c9,
            ]
        );
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn gen_range_zero_panics() {
        Pcg32::new(0, 0).gen_range(0);
    }
}

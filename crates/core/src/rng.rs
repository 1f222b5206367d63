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
        // Lemire's nearly divisionless rejection, against modulo bias.
        // The threshold `2^32 mod n` is below `n`, so a low word of at
        // least `n` is accepted without computing it.
        let mut product = u64::from(self.next_u32()) * u64::from(n);
        if (product as u32) < n {
            let threshold = n.wrapping_neg() % n;
            while (product as u32) < threshold {
                product = u64::from(self.next_u32()) * u64::from(n);
            }
        }
        (product >> 32) as u32
    }

    /// Uniform float in `[0, 1)`: [`Pcg32::unit_f64`] of the next draw.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        Pcg32::unit_f64(self.next_u32())
    }

    /// The float [`Pcg32::gen_f64`] makes of the raw draw `bits`.  The
    /// map is monotone, so `gen_f64() < p` is a test on the raw draw
    /// against a cut that can be computed once per `p`.
    #[inline]
    pub fn unit_f64(bits: u32) -> f64 {
        f64::from(bits) / f64::from(u32::MAX) / (1.0 + f64::EPSILON)
    }

    /// Picks an index with probability proportional to `weights`, whose
    /// sum `total` is `weights.iter().sum()`: a caller drawing from one
    /// table many times sums it once.
    ///
    /// # Panics
    ///
    /// Panics unless `total` is positive.
    #[inline]
    pub fn pick_weighted(&mut self, weights: &[f64], total: f64) -> usize {
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
            counts[rng.pick_weighted(&weights, 4.0)] += 1;
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

    /// Draws recorded from the rejection loop that computed `2^32 mod n`
    /// on every call.  `0x8000_0001` rejects about half of all draws.
    #[test]
    fn gen_range_known_answers() {
        let first8 = |seed, stream, n| {
            let mut rng = Pcg32::new(seed, stream);
            (0..8).map(|_| rng.gen_range(n)).collect::<Vec<_>>()
        };
        assert_eq!(first8(0x4d44_4553, 1, 3), [0, 1, 0, 0, 2, 2, 1, 1]);
        assert_eq!(first8(7, 2, 10), [5, 1, 6, 5, 4, 7, 8, 7]);
        assert_eq!(
            first8(7, 2, 1 << 16),
            [0x97ae, 0x2ffe, 0x99f5, 0x9450, 0x6ec8, 0xb833, 0xddfc, 0xbd50]
        );
        assert_eq!(
            first8(11, 3, 0x8000_0001),
            [
                0x6589_ca8f,
                0x3fac_fa16,
                0x06ff_9c05,
                0x4a41_0aef,
                0x31bc_dabc,
                0x112d_ba62,
                0x6c61_4c7e,
                0x38fa_901c,
            ]
        );
        assert_eq!(
            first8(11, 3, u32::MAX),
            [
                0xd6e1_932e,
                0xcb13_951d,
                0xb2a4_6c2a,
                0x7f59_f42c,
                0x0dff_380a,
                0x5d3f_288f,
                0xbd11_75f8,
                0xba7a_5166,
            ]
        );
        assert_eq!(first8(1, 1, 1), [0; 8]);
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn gen_range_zero_panics() {
        Pcg32::new(0, 0).gen_range(0);
    }
}

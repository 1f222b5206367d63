//! Open-loop arrival schedules.  A schedule is a pure function of the
//! seed, so two runs with one seed send the same requests at the same
//! offsets, whatever the system under test does.

use mdes_workload::Pcg32;

/// Poisson arrivals at `rate` per second over `len_ns`: ascending send
/// offsets in nanoseconds from the start of the phase.  `stream` keeps
/// the phases of one run independent of each other.
pub fn poisson_offsets(seed: u64, stream: u64, rate: f64, len_ns: u64) -> Vec<u64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = Pcg32::new(seed, stream);
    let mean_gap_ns = 1e9 / rate;
    let mut offsets = Vec::with_capacity((rate * len_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut at = 0.0f64;
    loop {
        // gen_f64 is in [0, 1), so the logarithm stays finite.
        at += -(1.0 - rng.gen_f64()).ln() * mean_gap_ns;
        if at >= len_ns as f64 {
            return offsets;
        }
        offsets.push(at as u64);
    }
}

/// The workload seed of request `index` in a run seeded with `seed`
/// (SplitMix64 over the pair), so requests and runs draw unrelated
/// workloads.  Seeds keep 53 bits, so a JSON number carries them
/// exactly.
pub fn request_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}

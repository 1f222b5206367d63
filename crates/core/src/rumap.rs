//! The resource usage map (RU map).
//!
//! The RU map records, for every schedule cycle, which resources are already
//! reserved by scheduled operations.  One cycle's occupancy is one 64-bit
//! word, so several usages falling in the same cycle are checked (reserved)
//! with a single AND (OR) — the bit-vector design of Section 6.
//!
//! Cycles are arbitrary `i32`s: operations issued at cycle 0 may use decode
//! resources at negative cycles, so the map grows in both directions.
//!
//! # Contract
//!
//! The map is *conceptually infinite*: every cycle exists and is all-zero
//! until reserved.  The `base`/`words` storage is a window onto that
//! infinite map, and the window's placement is an implementation detail
//! callers must not observe:
//!
//! * [`RuMap::word`] / [`RuMap::is_free`] outside the stored window read
//!   zero — the correct occupancy of any untouched cycle.
//! * [`RuMap::release`] outside the window is deliberately a no-op:
//!   clearing bits of an all-zero cycle changes nothing, so no growth is
//!   needed.  This also makes release safe to call with a superset of what
//!   was reserved (the checker's [`crate::Checker`] unwind paths rely on
//!   it when a partially applied option is backed out).
//! * [`RuMap::reserve`] grows the window as needed; the first reservation
//!   on an empty map *rebases* the window at that cycle.  Rebasing never
//!   discards occupancy (the map is empty at that point), so callers that
//!   interleave reserve/release at arbitrary cycles — the backward list
//!   scheduler probing negative cycles, a [`ModuloRuMap`] folding cycles
//!   into slots in `[0, II)` — cannot desynchronize: a release always
//!   either clears bits the matching reserve set, or no-ops on a cycle
//!   whose window entry was never created precisely because nothing was
//!   ever reserved there.
//!
//! The one way to misuse the map is to release a *different* (cycle,
//! mask) pair than was reserved while both fall inside the window — that
//! clears another operation's bits.  The schedulers never do this: the
//! one release site, `Checker::release`, replays the exact option
//! selection and issue cycle of a prior successful reserve.

/// A reservation table the checker can probe and update one cycle's
/// resource mask at a time.
///
/// The checker's methods are generic over it and monomorphized, so each
/// table shape gets its own copy of the one reservation walk with no
/// dispatch in the probe.
pub trait Occupancy {
    /// True if none of the resources in `mask` are reserved at `cycle`.
    fn is_free(&self, cycle: i32, mask: u64) -> bool;

    /// Marks the resources in `mask` reserved at `cycle`.
    fn reserve(&mut self, cycle: i32, mask: u64);

    /// Clears the resources in `mask` at `cycle`.
    fn release(&mut self, cycle: i32, mask: u64);
}

/// A growable bit matrix of resource occupancy indexed by schedule cycle.
///
/// # Examples
///
/// ```
/// use mdes_core::rumap::RuMap;
///
/// let mut ru = RuMap::new();
/// assert!(ru.is_free(-1, 0b01));
/// ru.reserve(-1, 0b01);
/// assert!(!ru.is_free(-1, 0b01));
/// assert!(ru.is_free(-1, 0b10)); // other resources unaffected
/// ru.release(-1, 0b01);
/// assert!(ru.is_free(-1, 0b01));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuMap {
    /// Cycle number of `words[0]`.
    base: i32,
    /// Occupancy words, one per cycle starting at `base`.
    words: Vec<u64>,
}

impl RuMap {
    /// Creates an empty map.
    pub fn new() -> RuMap {
        RuMap::default()
    }

    /// Creates an empty map pre-sized for cycles `lo..=hi` to avoid
    /// re-allocation in hot scheduling loops.
    pub fn with_range(lo: i32, hi: i32) -> RuMap {
        assert!(lo <= hi, "invalid cycle range {lo}..={hi}");
        RuMap {
            base: lo,
            words: vec![0; (hi - lo + 1) as usize],
        }
    }

    /// The occupancy word for `cycle` (0 when outside the stored range).
    #[inline]
    pub fn word(&self, cycle: i32) -> u64 {
        let idx = i64::from(cycle) - i64::from(self.base);
        if idx < 0 || idx >= self.words.len() as i64 {
            0
        } else {
            self.words[idx as usize]
        }
    }

    /// True if none of the resources in `mask` are reserved at `cycle`.
    #[inline]
    pub fn is_free(&self, cycle: i32, mask: u64) -> bool {
        self.word(cycle) & mask == 0
    }

    /// Marks the resources in `mask` reserved at `cycle`.
    ///
    /// Reserving an already-reserved resource is allowed (the bits just
    /// stay set); the constraint checker always probes with
    /// [`RuMap::is_free`] first.
    #[inline]
    pub fn reserve(&mut self, cycle: i32, mask: u64) {
        let idx = self.index_growing(cycle);
        self.words[idx] |= mask;
    }

    /// Clears the resources in `mask` at `cycle` (unscheduling support).
    ///
    /// Outside the stored window this is a no-op by design: an untouched
    /// cycle is all-zero, so there is nothing to clear and no reason to
    /// grow (see the module-level contract).
    #[inline]
    pub fn release(&mut self, cycle: i32, mask: u64) {
        let idx = i64::from(cycle) - i64::from(self.base);
        if idx >= 0 && idx < self.words.len() as i64 {
            self.words[idx as usize] &= !mask;
        }
    }

    /// Removes every reservation but keeps the allocated capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The lowest cycle with any reservation, if any.
    pub fn min_reserved_cycle(&self) -> Option<i32> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|i| self.base + i as i32)
    }

    /// The highest cycle with any reservation, if any.
    pub fn max_reserved_cycle(&self) -> Option<i32> {
        self.words
            .iter()
            .rposition(|&w| w != 0)
            .map(|i| self.base + i as i32)
    }

    /// Total number of reserved (cycle, resource) pairs.
    pub fn population(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Index of `cycle` in `words`, growing the vector as needed.
    ///
    /// The first touch of an empty map rebases the window at `cycle`;
    /// later touches grow downward (copy) or upward (resize).  Rebasing
    /// is invisible to callers because an empty map has no occupancy to
    /// move.
    fn index_growing(&mut self, cycle: i32) -> usize {
        if self.words.is_empty() {
            self.base = cycle;
            self.words.push(0);
            return 0;
        }
        let mut idx = i64::from(cycle) - i64::from(self.base);
        if idx < 0 {
            let grow = (-idx) as usize;
            let mut new_words = vec![0u64; grow + self.words.len()];
            new_words[grow..].copy_from_slice(&self.words);
            self.words = new_words;
            self.base = cycle;
            idx = 0;
        } else if idx >= self.words.len() as i64 {
            self.words.resize(idx as usize + 1, 0);
        }
        idx as usize
    }
}

impl Occupancy for RuMap {
    #[inline]
    fn is_free(&self, cycle: i32, mask: u64) -> bool {
        RuMap::is_free(self, cycle, mask)
    }

    #[inline]
    fn reserve(&mut self, cycle: i32, mask: u64) {
        RuMap::reserve(self, cycle, mask);
    }

    #[inline]
    fn release(&mut self, cycle: i32, mask: u64) {
        RuMap::release(self, cycle, mask);
    }
}

/// A modulo reservation table (MRT): an RU map whose cycles wrap at the
/// initiation interval, so a reservation at cycle `t` occupies every
/// cycle congruent to `t` modulo `ii`.  This is the one place the wrap is
/// computed; the modulo schedulers reserve through it with the same
/// checker walk the list scheduler runs on a [`RuMap`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuloRuMap {
    ii: i32,
    /// Occupancy of slots `0..ii`.
    slots: RuMap,
}

impl ModuloRuMap {
    /// Creates an empty table for initiation interval `ii`.
    ///
    /// # Panics
    ///
    /// Panics unless `ii` is positive.
    pub fn new(ii: i32) -> ModuloRuMap {
        assert!(ii >= 1, "initiation interval {ii} is not positive");
        ModuloRuMap {
            ii,
            slots: RuMap::with_range(0, ii - 1),
        }
    }

    /// The initiation interval.
    pub fn ii(&self) -> i32 {
        self.ii
    }

    /// The slot, in `[0, ii)`, that `cycle` folds into.
    #[inline]
    pub fn slot(&self, cycle: i32) -> i32 {
        cycle.rem_euclid(self.ii)
    }
}

impl Occupancy for ModuloRuMap {
    #[inline]
    fn is_free(&self, cycle: i32, mask: u64) -> bool {
        self.slots.is_free(self.slot(cycle), mask)
    }

    #[inline]
    fn reserve(&mut self, cycle: i32, mask: u64) {
        self.slots.reserve(self.slot(cycle), mask);
    }

    #[inline]
    fn release(&mut self, cycle: i32, mask: u64) {
        self.slots.release(self.slot(cycle), mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_is_fully_free() {
        let ru = RuMap::new();
        assert!(ru.is_free(0, u64::MAX));
        assert!(ru.is_free(i32::MIN / 2, u64::MAX));
        assert_eq!(ru.population(), 0);
        assert_eq!(ru.min_reserved_cycle(), None);
        assert_eq!(ru.max_reserved_cycle(), None);
    }

    #[test]
    fn reserve_then_check_and_release() {
        let mut ru = RuMap::new();
        ru.reserve(5, 0b110);
        assert!(!ru.is_free(5, 0b010));
        assert!(!ru.is_free(5, 0b100));
        assert!(ru.is_free(5, 0b001));
        assert!(ru.is_free(4, 0b110));
        ru.release(5, 0b010);
        assert!(ru.is_free(5, 0b010));
        assert!(!ru.is_free(5, 0b100));
    }

    #[test]
    fn grows_downward_for_negative_cycles() {
        let mut ru = RuMap::new();
        ru.reserve(3, 1);
        ru.reserve(-2, 2);
        assert!(!ru.is_free(3, 1));
        assert!(!ru.is_free(-2, 2));
        assert_eq!(ru.min_reserved_cycle(), Some(-2));
        assert_eq!(ru.max_reserved_cycle(), Some(3));
        assert_eq!(ru.population(), 2);
    }

    #[test]
    fn release_outside_range_is_a_no_op() {
        let mut ru = RuMap::new();
        ru.reserve(0, 1);
        ru.release(100, 1);
        ru.release(-100, 1);
        assert!(!ru.is_free(0, 1));
    }

    #[test]
    fn clear_keeps_range_but_frees_everything() {
        let mut ru = RuMap::with_range(-4, 16);
        ru.reserve(-4, u64::MAX);
        ru.reserve(16, 1);
        ru.clear();
        assert_eq!(ru.population(), 0);
        assert!(ru.is_free(-4, u64::MAX));
    }

    #[test]
    fn with_range_presizes_without_reservations() {
        let ru = RuMap::with_range(0, 63);
        assert_eq!(ru.population(), 0);
        assert!(ru.is_free(0, u64::MAX));
        assert!(ru.is_free(63, u64::MAX));
    }

    #[test]
    #[should_panic(expected = "invalid cycle range")]
    fn with_range_rejects_inverted_bounds() {
        let _ = RuMap::with_range(4, 2);
    }

    /// Rebase-on-first-touch must be invisible: a map first touched far
    /// from zero behaves identically to one first touched at zero.
    #[test]
    fn first_touch_rebase_is_observationally_neutral() {
        let mut far_first = RuMap::new();
        far_first.reserve(1_000, 0b1);
        far_first.reserve(0, 0b10);
        far_first.reserve(-7, 0b100);

        let mut zero_first = RuMap::new();
        zero_first.reserve(0, 0b10);
        zero_first.reserve(-7, 0b100);
        zero_first.reserve(1_000, 0b1);

        for cycle in [-8, -7, 0, 1, 999, 1_000, 1_001] {
            assert_eq!(
                far_first.word(cycle),
                zero_first.word(cycle),
                "cycle {cycle}"
            );
        }
        assert_eq!(far_first.min_reserved_cycle(), Some(-7));
        assert_eq!(far_first.max_reserved_cycle(), Some(1_000));
    }

    /// A reservation blocks every congruent cycle, below and above it,
    /// negative cycles included, and no other.
    #[test]
    fn modulo_reservation_blocks_every_congruent_cycle() {
        for at in [-7, -1, 0, 2, 4, 9] {
            let mut mrt = ModuloRuMap::new(3);
            mrt.reserve(at, 0b10);
            for cycle in at - 12..=at + 12 {
                let congruent = (cycle - at) % 3 == 0;
                assert_eq!(mrt.is_free(cycle, 0b10), !congruent, "{at} vs {cycle}");
                assert!(mrt.is_free(cycle, 0b01), "other resources stay free");
            }
        }
    }

    /// A release at any congruent cycle undoes the reservation.
    #[test]
    fn modulo_release_at_any_congruent_cycle_frees_it() {
        for at in [-9, -5, -1, 3, 7, 11] {
            let mut mrt = ModuloRuMap::new(4);
            mrt.reserve(3, 0b110);
            mrt.reserve(2, 0b001);
            mrt.release(at, 0b110);
            assert!((-8..8).all(|cycle| mrt.is_free(cycle, 0b110)), "{at}");
            assert!(!mrt.is_free(-2, 0b001), "slot 2 survives");
        }
    }

    #[test]
    fn modulo_slots_lie_in_zero_to_ii() {
        for ii in [1, 2, 5, 64] {
            let mrt = ModuloRuMap::new(ii);
            for cycle in [i32::MIN / 2, -65, -1, 0, 1, 64, 1_000_003] {
                let slot = mrt.slot(cycle);
                assert!((0..ii).contains(&slot), "ii {ii}: {cycle} -> {slot}");
                assert_eq!((cycle - slot) % ii, 0, "ii {ii}: {cycle} -> {slot}");
            }
        }
    }

    /// The backward scheduler probes and reserves at negative cycles
    /// after the map was rebased at a positive one; a release replayed
    /// from the reserve list must clear exactly those bits.
    #[test]
    fn backward_style_negative_cycle_unschedule() {
        let mut ru = RuMap::new();
        ru.reserve(10, 0b1); // forward placement rebased the window at 10
        ru.reserve(-3, 0b110); // backward placement grows downward
        ru.release(-3, 0b110); // unschedule the backward op
        assert_eq!(ru.word(-3), 0);
        assert!(!ru.is_free(10, 0b1), "unrelated reservation survived");
        // Releasing a superset (checker unwind) of an empty cycle no-ops.
        ru.release(-100, u64::MAX);
        assert_eq!(ru.population(), 1);
    }

    #[test]
    fn reserve_is_idempotent() {
        let mut ru = RuMap::new();
        ru.reserve(1, 0b11);
        ru.reserve(1, 0b11);
        assert_eq!(ru.population(), 2);
        ru.release(1, 0b11);
        assert_eq!(ru.population(), 0);
    }
}

//! The compiled low-level representation (`CompiledMdes`).
//!
//! Compilation flattens an [`MdesSpec`] into arrays
//! the constraint checker walks without pointer chasing, and fixes the
//! *usage encoding*:
//!
//! * [`UsageEncoding::Scalar`] — one RU-map probe per resource usage
//!   (the paper's pre-Section-6 cycle/resource pairs);
//! * [`UsageEncoding::BitVector`] — usages falling in the same cycle are
//!   packed into one 64-bit mask and probed together (Section 6).
//!
//! Sharing in the compiled form mirrors sharing in the spec exactly: one
//! compiled option per spec option, one compiled OR-tree per spec OR-tree,
//! "in order to minimize the time required to load the MDES into memory"
//! (Section 4).  Each pool of lists (option probes, OR-tree options,
//! class trees) is one flat arena sliced by a bounds array, and
//! [`CompiledMdes::compile`] and [`crate::lmdes::read`] fill them
//! through one constructor.

use crate::error::MdesError;
use crate::rumap::Occupancy;
use crate::spec::{ClassId, Constraint, Latency, MdesSpec, OpFlags};
use crate::stats::CheckStats;
use crate::usage::ResourceUsage;
use mdes_telemetry::Telemetry;

/// How resource usages are encoded for checking (Section 6).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum UsageEncoding {
    /// One check per (cycle, resource) pair.
    Scalar,
    /// One check per (cycle, resource-vector) pair.
    BitVector,
}

/// One RU-map probe: are the resources in `mask` free at relative `time`?
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CompiledCheck {
    /// Cycle offset relative to the issue cycle.
    pub time: i32,
    /// Resource occupancy bits probed together.
    pub mask: u64,
}

/// Whether a class's constraint came from an OR-tree or an AND/OR-tree
/// (distinguished for the memory model: the AND level costs a header).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// Traditional single OR-tree.
    Or,
    /// AND of OR-trees.
    AndOr,
}

/// A compiled operation class.  Its OR-tree list lives in the class-tree
/// arena; read it through [`CompiledMdes::class_trees`].
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledClass {
    /// Class name (diagnostics only).
    pub name: String,
    /// Source constraint form.
    pub kind: ConstraintKind,
    /// For [`ConstraintKind::AndOr`] classes, the spec AND/OR-tree index
    /// (so two classes sharing a spec tree share the compiled AND level in
    /// the memory model).  `u32::MAX` for OR classes.
    pub and_or_index: u32,
    /// Latency information.
    pub latency: Latency,
    /// Semantic flags.
    pub flags: OpFlags,
}

/// Variable-length lists stored back to back in one contiguous arena:
/// list `i` occupies `items[bounds[i]..bounds[i + 1]]`.  A default arena
/// owns no allocation; [`Arena::open`] writes the leading 0, and each
/// [`Arena::close`] ends one list.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Arena<T> {
    items: Vec<T>,
    bounds: Vec<u32>,
}

impl<T> Default for Arena<T> {
    fn default() -> Arena<T> {
        Arena {
            items: Vec::new(),
            bounds: Vec::new(),
        }
    }
}

impl<T> Arena<T> {
    /// Starts the arena for `lists` lists.
    pub(crate) fn open(&mut self, lists: usize) {
        self.bounds.reserve_exact(lists + 1);
        self.bounds.push(0);
    }

    /// Appends one item to the list being filled.
    pub(crate) fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Appends items to the list being filled.
    pub(crate) fn extend(&mut self, items: impl IntoIterator<Item = T>) {
        self.items.extend(items);
    }

    /// Ends the list being filled.
    pub(crate) fn close(&mut self) {
        self.bounds.push(self.items.len() as u32);
    }

    /// Number of lists (of an opened arena).
    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// List `i`.
    #[inline]
    fn get(&self, i: usize) -> &[T] {
        &self.items[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }
}

/// The flat, checker-ready machine description.
///
/// Every pool of lists is one arena: each option's probes, each
/// OR-tree's options and each class's OR-trees live back to back in one
/// contiguous buffer delimited by a bounds array.  A reservation walks a
/// class's tree list, each tree's option list and each option's probes
/// as dense slices rather than chasing a heap allocation per item, which
/// keeps the scheduler's check/reserve inner loop in a few cache lines.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledMdes {
    encoding: UsageEncoding,
    num_resources: usize,
    pools: Pools,
    /// Most negative check time across all options (≤ 0).
    min_time: i32,
    /// Most positive check time across all options (≥ 0).
    max_time: i32,
}

/// A description's pools in [`CompiledMdes`]'s flat layout, filled by
/// [`CompiledMdes::compile`] from a spec and by the LMDES walk from an
/// image.  Whoever fills one opens every arena and vouches that every
/// stored index is in range and every OR class lists exactly one tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Pools {
    /// Each option's probes, in check order.
    pub(crate) options: Arena<CompiledCheck>,
    /// Each OR-tree's option indices, highest priority first.
    pub(crate) trees: Arena<u32>,
    /// Each class's OR-tree indices, in check order.
    pub(crate) class_trees: Arena<u32>,
    pub(crate) classes: Vec<CompiledClass>,
    /// Bypass latency exceptions: (producer, consumer) → latency.
    pub(crate) bypasses: Vec<(u32, u32, i32)>,
}

impl CompiledMdes {
    /// Compiles `spec` with the given usage encoding.
    ///
    /// # Errors
    ///
    /// Returns the first validation error of the spec; compilation never
    /// proceeds on an inconsistent description.
    pub fn compile(spec: &MdesSpec, encoding: UsageEncoding) -> Result<CompiledMdes, MdesError> {
        Self::compile_with_telemetry(spec, encoding, &Telemetry::disabled())
    }

    /// [`CompiledMdes::compile`] with phase spans (`compile/validate`,
    /// `compile/packing`, `compile/classes`) and sharing gauges recorded
    /// into `tel`.
    ///
    /// The sharing gauges measure how much the one-compiled-object-per-
    /// spec-object policy (Section 4's load-time sharing) saves: the number
    /// of option *references* from OR-trees versus the unique option pool,
    /// and the checks-per-usage packing ratio of the chosen encoding.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledMdes::compile`].
    pub fn compile_with_telemetry(
        spec: &MdesSpec,
        encoding: UsageEncoding,
        tel: &Telemetry,
    ) -> Result<CompiledMdes, MdesError> {
        let _compile = tel.span("compile");
        {
            let _validate = tel.span("validate");
            spec.validate()?;
        }

        let mut pools = Pools::default();
        {
            let _packing = tel.span("packing");
            pools.options.open(spec.num_options());
            for id in spec.option_ids() {
                compile_option(&spec.option(id).usages, encoding, &mut pools.options);
            }
        }

        pools.trees.open(spec.num_or_trees());
        for id in spec.or_tree_ids() {
            let options = &spec.or_tree(id).options;
            pools.trees.extend(options.iter().map(|o| o.index() as u32));
            pools.trees.close();
        }

        // Sharing: every OR-tree stores references into one shared option
        // pool; the hit rate is how many references resolve to an
        // already-compiled option rather than a fresh one.
        let unique = spec.num_options();
        let references = pools.trees.items.len();
        tel.gauge_set("compile/options/unique", unique as f64);
        tel.gauge_set("compile/options/references", references as f64);
        if references > 0 {
            tel.gauge_set(
                "compile/options/share_hit_rate",
                1.0 - unique as f64 / references as f64,
            );
        }
        let usages: usize = spec
            .option_ids()
            .map(|id| spec.option(id).usages.len())
            .sum();
        let checks = pools.options.items.len();
        tel.gauge_set("compile/checks/emitted", checks as f64);
        if usages > 0 {
            tel.gauge_set(
                "compile/checks/packing_ratio",
                checks as f64 / usages as f64,
            );
        }

        let _classes_span = tel.span("classes");
        pools.classes.reserve_exact(spec.num_classes());
        pools.class_trees.open(spec.num_classes());
        for id in spec.class_ids() {
            let class = spec.class(id);
            let (kind, and_or_index) = match class.constraint {
                Constraint::Or(or) => {
                    pools.class_trees.push(or.index() as u32);
                    (ConstraintKind::Or, u32::MAX)
                }
                Constraint::AndOr(andor) => {
                    let trees = &spec.and_or_tree(andor).or_trees;
                    pools
                        .class_trees
                        .extend(trees.iter().map(|o| o.index() as u32));
                    (ConstraintKind::AndOr, andor.index() as u32)
                }
            };
            pools.class_trees.close();
            pools.classes.push(CompiledClass {
                name: class.name.clone(),
                kind,
                and_or_index,
                latency: class.latency,
                flags: class.flags,
            });
        }
        drop(_classes_span);

        pools.bypasses = spec
            .bypasses()
            .iter()
            .map(|&(p, c, l)| (p.index() as u32, c.index() as u32, l))
            .collect();
        let times = pools.options.items.iter().map(|c| c.time);
        let min_time = times.clone().min().unwrap_or(0).min(0);
        let max_time = times.max().unwrap_or(0).max(0);
        Ok(CompiledMdes::from_pools(
            encoding,
            spec.resources().len(),
            pools,
            min_time,
            max_time,
        ))
    }

    /// The flow-dependence latency from a `producer` to a `consumer`:
    /// a declared bypass exception if one exists, otherwise the operand
    /// read/write-time default `producer.dest − consumer.src` (clamped
    /// non-negative).
    pub fn flow_latency(&self, producer: ClassId, consumer: ClassId) -> i32 {
        let pair = (producer.index() as u32, consumer.index() as u32);
        for &(p, c, latency) in &self.pools.bypasses {
            if (p, c) == pair {
                return latency.max(0);
            }
        }
        (self.class(producer).latency.dest - self.class(consumer).latency.src).max(0)
    }

    /// The bypass exception table.
    pub fn bypasses(&self) -> &[(u32, u32, i32)] {
        &self.pools.bypasses
    }

    /// The one constructor: [`CompiledMdes::compile`] and the LMDES
    /// reader both end here, with pools in this layout (see [`Pools`] for
    /// what the caller vouches for).
    pub(crate) fn from_pools(
        encoding: UsageEncoding,
        num_resources: usize,
        pools: Pools,
        min_time: i32,
        max_time: i32,
    ) -> CompiledMdes {
        CompiledMdes {
            encoding,
            num_resources,
            pools,
            min_time,
            max_time,
        }
    }

    /// The usage encoding this MDES was compiled with.
    pub fn encoding(&self) -> UsageEncoding {
        self.encoding
    }

    /// Number of resources in the source description.
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }

    /// Number of options in the shared pool.
    pub fn num_options(&self) -> usize {
        self.pools.options.len()
    }

    /// The probes of option `idx`, in check order: a slice of the check
    /// arena.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is not a valid option index.
    #[inline]
    pub fn option_checks(&self, idx: usize) -> &[CompiledCheck] {
        self.pools.options.get(idx)
    }

    /// Total number of probes stored in the check arena.
    pub fn num_checks(&self) -> usize {
        self.pools.options.items.len()
    }

    /// Number of OR-trees in the shared pool.
    pub fn num_or_trees(&self) -> usize {
        self.pools.trees.len()
    }

    /// The option indices of OR-tree `idx`, highest priority first: a
    /// slice of the tree arena.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is not a valid OR-tree index.
    #[inline]
    pub fn tree_options(&self, idx: usize) -> &[u32] {
        self.pools.trees.get(idx)
    }

    /// The OR-tree indices of class `id`, in check order: a slice of the
    /// class-tree arena.  An OR class has exactly one.
    ///
    /// # Panics
    ///
    /// Panics on a [`ClassId`] from a different MDES.
    #[inline]
    pub fn class_trees(&self, id: ClassId) -> &[u32] {
        self.pools.class_trees.get(id.index())
    }

    /// The compiled classes, indexable by [`ClassId`].
    pub fn classes(&self) -> &[CompiledClass] {
        &self.pools.classes
    }

    /// The compiled class for `id`.
    ///
    /// # Panics
    ///
    /// Panics on a [`ClassId`] from a different MDES.
    pub fn class(&self, id: ClassId) -> &CompiledClass {
        &self.pools.classes[id.index()]
    }

    /// Looks a class up by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.pools
            .classes
            .iter()
            .position(|c| c.name == name)
            .map(ClassId::from_index)
    }

    /// Most negative check time across all options (≤ 0).
    pub fn min_check_time(&self) -> i32 {
        self.min_time
    }

    /// Most positive check time across all options (≥ 0).
    pub fn max_check_time(&self) -> i32 {
        self.max_time
    }

    /// Total reservation-table options reachable from `class` (cross
    /// product across the AND level).
    pub fn class_option_count(&self, id: ClassId) -> usize {
        self.class_trees(id)
            .iter()
            .map(|&t| self.tree_options(t as usize).len())
            .product()
    }
}

/// Compiles one option's usages into its probe sequence, as the next list
/// of the check arena.
fn compile_option(
    usages: &[ResourceUsage],
    encoding: UsageEncoding,
    arena: &mut Arena<CompiledCheck>,
) {
    let start = arena.items.len();
    for u in usages {
        let check = CompiledCheck {
            time: u.time,
            mask: u.resource.bit(),
        };
        // Bit-vector packing groups usages by cycle, preserving the
        // first-occurrence order of cycles so the check-ordering
        // transformation's choice of "time zero first" survives packing.
        let same_cycle = match encoding {
            UsageEncoding::Scalar => None,
            UsageEncoding::BitVector => arena.items[start..].iter_mut().find(|c| c.time == u.time),
        };
        match same_cycle {
            Some(packed) => packed.mask |= check.mask,
            None => arena.push(check),
        }
    }
    arena.close();
}

/// The resource-constraint checker of the low-level representation.
///
/// One algorithm serves both representations: a class is a list of
/// OR-trees (length 1 for the traditional representation), and the checker
/// runs the OR-tree algorithm under "an outer loop … that processes the
/// array of OR-trees" (Section 3), reserving progressively and rolling
/// back on failure.
#[derive(Copy, Clone, Debug)]
pub struct Checker<'a> {
    mdes: &'a CompiledMdes,
}

impl<'a> Checker<'a> {
    /// Creates a checker over `mdes`.
    pub fn new(mdes: &'a CompiledMdes) -> Checker<'a> {
        Checker { mdes }
    }

    /// The compiled MDES this checker reads.
    pub fn mdes(&self) -> &'a CompiledMdes {
        self.mdes
    }

    /// Attempts to reserve resources for one operation of `class` issued at
    /// `time`, appending the selection to a caller-owned buffer.
    ///
    /// This is the one reservation call, and every scheduler reserves
    /// through it: the list schedulers and the automaton baseline on a
    /// [`crate::RuMap`], the modulo schedulers on a [`crate::ModuloRuMap`];
    /// a caller that unschedules keeps the appended selection and hands
    /// it to [`Checker::release`].  Every call counts as one *scheduling
    /// attempt* in `stats`.
    ///
    /// It walks the class's OR-trees in order, reserves each tree's first
    /// free option (priority order), and rolls back on the first tree with
    /// no free option.  On success the RU map is updated, one
    /// compiled-option index per OR-tree of `class` (in the class's
    /// OR-tree order) is appended to `out`, and `true` is returned.  On
    /// failure the RU map is rolled back, `out` is truncated to its length
    /// on entry, and `false` is returned.  Once `out` has spare capacity
    /// for the class's OR-trees the call performs no heap allocation.
    // Forced: left to a hint, the list scheduler's placement loop calls
    // this out of line.
    #[inline(always)]
    pub fn try_reserve_into<M: Occupancy>(
        &self,
        ru: &mut M,
        class: ClassId,
        time: i32,
        stats: &mut CheckStats,
        out: &mut Vec<u32>,
    ) -> bool {
        stats.begin_attempt();
        let start = out.len();
        for &tree_idx in self.mdes.class_trees(class) {
            match self.try_or_tree(ru, tree_idx, time, stats) {
                Some(opt_idx) => {
                    self.apply_option_at(ru, opt_idx, time, true);
                    out.push(opt_idx);
                }
                None => {
                    self.release(ru, time, &out[start..]);
                    out.truncate(start);
                    stats.end_attempt(false);
                    return false;
                }
            }
        }
        stats.end_attempt(true);
        true
    }

    /// Releases the options `selection` reserved at issue time `time`
    /// (unscheduling, and the rollback of a failed attempt).  The one
    /// release site: it replays exactly what the matching reservation
    /// set.
    pub fn release<M: Occupancy>(&self, ru: &mut M, time: i32, selection: &[u32]) {
        for &opt_idx in selection {
            self.apply_option_at(ru, opt_idx, time, false);
        }
    }

    /// True when every probe of option `opt_idx` finds its resources free
    /// at issue time `time`, counting one option attempt in `stats`.
    /// Walks one dense slice of the shared check arena.
    ///
    /// This is the probe the greedy OR-tree walk makes for each option.
    /// Exact-search clients (the oracle schedulers in `mdes-oracle`)
    /// branch over individual OR-tree options instead of accepting the
    /// greedy first-feasible pick of [`Checker::try_reserve_into`], so they
    /// call it directly and both paths answer from one query surface.
    #[inline]
    pub fn option_fits<M: Occupancy>(
        &self,
        ru: &M,
        opt_idx: u32,
        time: i32,
        stats: &mut CheckStats,
    ) -> bool {
        stats.count_option();
        for check in self.mdes.option_checks(opt_idx as usize) {
            stats.count_check();
            if !ru.is_free(time + check.time, check.mask) {
                return false;
            }
        }
        true
    }

    /// Reserves (`set = true`) or releases (`set = false`) every check of
    /// option `opt_idx` at issue time `time`.
    ///
    /// The greedy walk's own reservation and release step; exact-search
    /// clients pair it with [`Checker::option_fits`] to manage their own
    /// option selection (e.g. branch-and-bound search).
    #[inline]
    pub fn apply_option_at<M: Occupancy>(&self, ru: &mut M, opt_idx: u32, time: i32, set: bool) {
        for check in self.mdes.option_checks(opt_idx as usize) {
            if set {
                ru.reserve(time + check.time, check.mask);
            } else {
                ru.release(time + check.time, check.mask);
            }
        }
    }

    /// Walks one OR-tree: returns the first option (priority order) whose
    /// probes all succeed.  Does not reserve.
    // Out of line, as when only this crate instantiated it: inlined into
    // the reservation loop, the `checker/*` benches ran 5-15% slower
    // (2-vCPU container, alternating runs).
    #[inline(never)]
    fn try_or_tree<M: Occupancy>(
        &self,
        ru: &M,
        tree_idx: u32,
        time: i32,
        stats: &mut CheckStats,
    ) -> Option<u32> {
        self.mdes
            .tree_options(tree_idx as usize)
            .iter()
            .copied()
            .find(|&opt_idx| self.option_fits(ru, opt_idx, time, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceId;
    use crate::rumap::RuMap;
    use crate::spec::{AndOrTree, OrTree, TableOption};
    use crate::usage::ResourceUsage;

    fn u(r: usize, t: i32) -> ResourceUsage {
        ResourceUsage::new(ResourceId::from_index(r), t)
    }

    /// Two decoders (r0, r1) and one memory unit (r2): a small AND/OR
    /// machine with an equivalent expanded OR machine.
    fn andor_spec() -> MdesSpec {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add_indexed("Dec", 2).unwrap();
        spec.resources_mut().add("M").unwrap();
        let d0 = spec.add_option(TableOption::new(vec![u(0, -1)]));
        let d1 = spec.add_option(TableOption::new(vec![u(1, -1)]));
        let m = spec.add_option(TableOption::new(vec![u(2, 0)]));
        let dec = spec.add_or_tree(OrTree::named("AnyDec", vec![d0, d1]));
        let mem = spec.add_or_tree(OrTree::named("UseM", vec![m]));
        let load = spec.add_and_or_tree(AndOrTree::named("Load", vec![mem, dec]));
        spec.add_class(
            "load",
            Constraint::AndOr(load),
            Latency::new(1),
            OpFlags::load(),
        )
        .unwrap();
        spec
    }

    #[test]
    fn compile_validates_first() {
        let spec = MdesSpec::new();
        assert!(CompiledMdes::compile(&spec, UsageEncoding::Scalar).is_err());
    }

    #[test]
    fn scalar_encoding_has_one_check_per_usage() {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add_indexed("r", 3).unwrap();
        let opt = spec.add_option(TableOption::new(vec![u(0, 0), u(1, 0), u(2, 1)]));
        let tree = spec.add_or_tree(OrTree::new(vec![opt]));
        spec.add_class("op", Constraint::Or(tree), Latency::new(1), OpFlags::none())
            .unwrap();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap();
        assert_eq!(compiled.option_checks(0).len(), 3);
    }

    #[test]
    fn bitvector_encoding_packs_same_cycle_usages() {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add_indexed("r", 3).unwrap();
        let opt = spec.add_option(TableOption::new(vec![u(0, 0), u(1, 0), u(2, 1)]));
        let tree = spec.add_or_tree(OrTree::new(vec![opt]));
        spec.add_class("op", Constraint::Or(tree), Latency::new(1), OpFlags::none())
            .unwrap();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        assert_eq!(
            compiled.option_checks(0),
            [
                CompiledCheck {
                    time: 0,
                    mask: 0b011
                },
                CompiledCheck {
                    time: 1,
                    mask: 0b100
                }
            ]
        );
    }

    #[test]
    fn bitvector_packing_preserves_first_occurrence_time_order() {
        let mut spec = MdesSpec::new();
        spec.resources_mut().add_indexed("r", 3).unwrap();
        // Check order starts at time 1, then 0: packing must not re-sort.
        let opt = spec.add_option(TableOption::new(vec![u(2, 1), u(0, 0), u(1, 1)]));
        let tree = spec.add_or_tree(OrTree::new(vec![opt]));
        spec.add_class("op", Constraint::Or(tree), Latency::new(1), OpFlags::none())
            .unwrap();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let checks = compiled.option_checks(0);
        assert_eq!(checks[0].time, 1);
        assert_eq!(checks[0].mask, 0b110);
        assert_eq!(checks[1].time, 0);
    }

    #[test]
    fn arenas_slice_every_pool() {
        let spec = andor_spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap();
        assert_eq!(compiled.num_options(), 3);
        assert_eq!(compiled.num_checks(), 3);
        assert_eq!(compiled.num_or_trees(), 2);
        assert_eq!(compiled.tree_options(0), [0, 1]);
        assert_eq!(compiled.tree_options(1), [2]);
        let load = compiled.class_by_name("load").unwrap();
        // The memory tree first, as the AND/OR-tree lists it.
        assert_eq!(compiled.class_trees(load), [1, 0]);
    }

    #[test]
    fn try_reserve_into_picks_highest_priority_free_option() {
        let spec = andor_spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let checker = Checker::new(&compiled);
        let class = compiled.class_by_name("load").unwrap();
        let mut ru = RuMap::new();
        let mut stats = CheckStats::new();
        let mut first = Vec::new();

        assert!(checker.try_reserve_into(&mut ru, class, 0, &mut stats, &mut first));
        // M from the memory tree, then decoder 0 (compiled option 0).
        assert_eq!(first, [2, 0]);
        assert!(!ru.is_free(-1, 0b01)); // Dec[0] at time -1
        assert!(!ru.is_free(0, 0b100)); // M at time 0

        // Second load in the same cycle: M is busy, so it must fail and
        // leave the map untouched.
        let pop_before = ru.population();
        let mut failed = Vec::new();
        assert!(!checker.try_reserve_into(&mut ru, class, 0, &mut stats, &mut failed));
        assert!(failed.is_empty());
        assert_eq!(ru.population(), pop_before);

        // One cycle later every resource is free again (usages are
        // relative), so it succeeds with decoder 0 again.
        let mut second = Vec::new();
        assert!(checker.try_reserve_into(&mut ru, class, 1, &mut stats, &mut second));
        assert_eq!(second, first);
    }

    #[test]
    fn failed_and_or_attempt_rolls_back_partial_reservations() {
        let spec = andor_spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap();
        let checker = Checker::new(&compiled);
        let class = compiled.class_by_name("load").unwrap();
        let mut ru = RuMap::new();
        let mut stats = CheckStats::new();

        // Occupy both decoders at time -1 but leave M free: the memory
        // OR-tree succeeds (and reserves M), the decoder tree fails, and
        // the rollback must free M again and drop its selection, leaving
        // what the buffer held on entry.
        ru.reserve(-1, 0b11);
        let mut selected = vec![7];
        assert!(!checker.try_reserve_into(&mut ru, class, 0, &mut stats, &mut selected));
        assert!(ru.is_free(0, 0b100), "M must be rolled back");
        assert_eq!(selected, [7]);
    }

    #[test]
    fn release_undoes_a_reservation() {
        let spec = andor_spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let checker = Checker::new(&compiled);
        let class = compiled.class_by_name("load").unwrap();
        let mut ru = RuMap::new();
        let mut stats = CheckStats::new();
        let mut selected = Vec::new();

        assert!(checker.try_reserve_into(&mut ru, class, 3, &mut stats, &mut selected));
        assert!(ru.population() > 0);
        checker.release(&mut ru, 3, &selected);
        assert_eq!(ru.population(), 0);
    }

    #[test]
    fn stats_count_short_circuiting() {
        let spec = andor_spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let checker = Checker::new(&compiled);
        let class = compiled.class_by_name("load").unwrap();
        let mut ru = RuMap::new();
        let mut stats = CheckStats::new();

        // M busy: the memory tree (checked first) fails after 1 option /
        // 1 check; the decoder tree is never consulted.
        ru.reserve(0, 0b100);
        assert!(!checker.try_reserve_into(&mut ru, class, 0, &mut stats, &mut Vec::new()));
        assert_eq!(stats.options_checked, 1);
        assert_eq!(stats.resource_checks, 1);
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.successes, 0);
    }

    #[test]
    fn min_max_check_times_cover_negative_and_positive_usages() {
        let spec = andor_spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap();
        assert_eq!(compiled.min_check_time(), -1);
        assert_eq!(compiled.max_check_time(), 0);
    }

    #[test]
    fn class_option_count_matches_cross_product() {
        let spec = andor_spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::Scalar).unwrap();
        let class = compiled.class_by_name("load").unwrap();
        assert_eq!(compiled.class_option_count(class), 2);
    }
}

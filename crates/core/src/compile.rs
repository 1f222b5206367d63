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
//! (Section 4).

use crate::error::MdesError;
use crate::rumap::Occupancy;
use crate::spec::{ClassId, Constraint, Latency, MdesSpec, OpFlags};
use crate::stats::CheckStats;
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

/// A compiled reservation-table option: probes in check order.
///
/// This is the *construction-time* form (used by
/// [`CompiledMdes::from_parts`]).  Inside a [`CompiledMdes`] the
/// per-option check lists are flattened into one contiguous arena so the
/// checker's inner loop walks a dense slice instead of chasing one heap
/// allocation per option; read them back through
/// [`CompiledMdes::option_checks`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledOption {
    /// The probes, in the order the checker performs them.
    pub checks: Vec<CompiledCheck>,
}

impl CompiledOption {
    /// Combined occupancy over all cycles (for diagnostics).
    pub fn total_mask(&self) -> u64 {
        self.checks.iter().fold(0, |m, c| m | c.mask)
    }
}

/// A borrowed view of one option's probes in the flat check arena.
///
/// Iterating yields [`CompiledCheck`]s by value, so loops written against
/// the old pointer-chased `Vec<CompiledCheck>` read the same.
#[derive(Copy, Clone, Debug)]
pub struct Checks<'a> {
    checks: &'a [CompiledCheck],
}

impl<'a> Checks<'a> {
    /// Number of probes in the option.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// True for an option with no probes.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// The `k`-th probe.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    pub fn at(&self, k: usize) -> CompiledCheck {
        self.checks[k]
    }

    /// The probes as a plain slice into the arena.
    pub fn as_slice(&self) -> &'a [CompiledCheck] {
        self.checks
    }

    /// Iterates the probes in check order.
    pub fn iter(&self) -> impl Iterator<Item = CompiledCheck> + 'a {
        self.checks.iter().copied()
    }

    /// Combined occupancy over all cycles (for diagnostics).
    pub fn total_mask(&self) -> u64 {
        self.checks.iter().fold(0, |m, c| m | c.mask)
    }
}

impl<'a> IntoIterator for Checks<'a> {
    type Item = CompiledCheck;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, CompiledCheck>>;

    fn into_iter(self) -> Self::IntoIter {
        self.checks.iter().copied()
    }
}

/// A compiled OR-tree: compiled-option indices in priority order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledOrTree {
    /// Indices into [`CompiledMdes::options`], highest priority first.
    pub options: Vec<u32>,
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

/// A compiled operation class.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledClass {
    /// Class name (diagnostics only).
    pub name: String,
    /// Source constraint form.
    pub kind: ConstraintKind,
    /// Indices into [`CompiledMdes::or_trees`], in check order.  A
    /// [`ConstraintKind::Or`] class has exactly one entry.
    pub or_trees: Vec<u32>,
    /// For [`ConstraintKind::AndOr`] classes, the spec AND/OR-tree index
    /// (so two classes sharing a spec tree share the compiled AND level in
    /// the memory model).  `u32::MAX` for OR classes.
    pub and_or_index: u32,
    /// Latency information.
    pub latency: Latency,
    /// Semantic flags.
    pub flags: OpFlags,
}

/// The flat, checker-ready machine description.
///
/// All per-option check lists live in one contiguous arena (`checks`,
/// delimited by `option_bounds`): probing an option walks one dense slice
/// of the shared arena rather than chasing a heap allocation per option,
/// which is what keeps the scheduler's check/reserve inner loop in one or
/// two cache lines per option.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledMdes {
    encoding: UsageEncoding,
    num_resources: usize,
    /// Every option's probes, concatenated in option order.
    checks: Vec<CompiledCheck>,
    /// Arena delimiters: option `i`'s probes occupy
    /// `option_bounds[i]..option_bounds[i + 1]`.  Length is one more than
    /// the option count.
    option_bounds: Vec<u32>,
    or_trees: Vec<CompiledOrTree>,
    classes: Vec<CompiledClass>,
    /// Bypass latency exceptions: (producer, consumer) → latency.
    bypasses: Vec<(u32, u32, i32)>,
    /// Most negative check time across all options (≤ 0).
    min_time: i32,
    /// Most positive check time across all options (≥ 0).
    max_time: i32,
}

/// A description's pools in [`CompiledMdes`]'s flat layout.  Whoever
/// fills one vouches for what [`CompiledMdes::from_parts`] checks: every
/// stored index is in range, every OR class lists exactly one tree, and
/// `option_bounds` delimits `checks` (0 first, one more entry per option).
#[derive(Default)]
pub(crate) struct Pools {
    pub(crate) checks: Vec<CompiledCheck>,
    pub(crate) option_bounds: Vec<u32>,
    pub(crate) or_trees: Vec<CompiledOrTree>,
    pub(crate) classes: Vec<CompiledClass>,
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

        let options: Vec<CompiledOption> = {
            let _packing = tel.span("packing");
            spec.option_ids()
                .map(|id| compile_option(spec, id, encoding))
                .collect()
        };

        let or_trees: Vec<CompiledOrTree> = spec
            .or_tree_ids()
            .map(|id| CompiledOrTree {
                options: spec
                    .or_tree(id)
                    .options
                    .iter()
                    .map(|o| o.index() as u32)
                    .collect(),
            })
            .collect();

        // Sharing: every OR-tree stores references into one shared option
        // pool; the hit rate is how many references resolve to an
        // already-compiled option rather than a fresh one.
        let references: usize = or_trees.iter().map(|t| t.options.len()).sum();
        tel.gauge_set("compile/options/unique", options.len() as f64);
        tel.gauge_set("compile/options/references", references as f64);
        if references > 0 {
            tel.gauge_set(
                "compile/options/share_hit_rate",
                1.0 - options.len() as f64 / references as f64,
            );
        }
        let usages: usize = spec
            .option_ids()
            .map(|id| spec.option(id).usages.len())
            .sum();
        let checks: usize = options.iter().map(|o| o.checks.len()).sum();
        tel.gauge_set("compile/checks/emitted", checks as f64);
        if usages > 0 {
            tel.gauge_set(
                "compile/checks/packing_ratio",
                checks as f64 / usages as f64,
            );
        }

        let _classes_span = tel.span("classes");
        let classes: Vec<CompiledClass> = spec
            .class_ids()
            .map(|id| {
                let class = spec.class(id);
                let (kind, trees, and_or_index) = match class.constraint {
                    Constraint::Or(or) => (ConstraintKind::Or, vec![or.index() as u32], u32::MAX),
                    Constraint::AndOr(andor) => (
                        ConstraintKind::AndOr,
                        spec.and_or_tree(andor)
                            .or_trees
                            .iter()
                            .map(|o| o.index() as u32)
                            .collect(),
                        andor.index() as u32,
                    ),
                };
                CompiledClass {
                    name: class.name.clone(),
                    kind,
                    or_trees: trees,
                    and_or_index,
                    latency: class.latency,
                    flags: class.flags,
                }
            })
            .collect();
        drop(_classes_span);

        let min_time = options
            .iter()
            .flat_map(|o| o.checks.iter().map(|c| c.time))
            .min()
            .unwrap_or(0)
            .min(0);
        let max_time = options
            .iter()
            .flat_map(|o| o.checks.iter().map(|c| c.time))
            .max()
            .unwrap_or(0)
            .max(0);

        let (checks, option_bounds) = flatten_options(&options);
        Ok(CompiledMdes {
            encoding,
            num_resources: spec.resources().len(),
            checks,
            option_bounds,
            or_trees,
            classes,
            bypasses: spec
                .bypasses()
                .iter()
                .map(|&(p, c, l)| (p.index() as u32, c.index() as u32, l))
                .collect(),
            min_time,
            max_time,
        })
    }

    /// The flow-dependence latency from a `producer` to a `consumer`:
    /// a declared bypass exception if one exists, otherwise the operand
    /// read/write-time default `producer.dest − consumer.src` (clamped
    /// non-negative).
    pub fn flow_latency(&self, producer: ClassId, consumer: ClassId) -> i32 {
        let pair = (producer.index() as u32, consumer.index() as u32);
        for &(p, c, latency) in &self.bypasses {
            if (p, c) == pair {
                return latency.max(0);
            }
        }
        (self.class(producer).latency.dest - self.class(consumer).latency.src).max(0)
    }

    /// The bypass exception table.
    pub fn bypasses(&self) -> &[(u32, u32, i32)] {
        &self.bypasses
    }

    /// Reassembles a compiled MDES from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`MdesError::UnknownOption`] / [`MdesError::UnknownOrTree`]
    /// if any stored index dangles, or [`MdesError::EmptyOrTree`] for an
    /// OR class without exactly one tree.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        encoding: UsageEncoding,
        num_resources: usize,
        options: Vec<CompiledOption>,
        or_trees: Vec<CompiledOrTree>,
        classes: Vec<CompiledClass>,
        bypasses: Vec<(u32, u32, i32)>,
        min_time: i32,
        max_time: i32,
    ) -> Result<CompiledMdes, MdesError> {
        for tree in &or_trees {
            for &opt in &tree.options {
                if opt as usize >= options.len() {
                    return Err(MdesError::UnknownOption(opt));
                }
            }
        }
        for class in &classes {
            for &tree in &class.or_trees {
                if tree as usize >= or_trees.len() {
                    return Err(MdesError::UnknownOrTree(tree));
                }
            }
            if class.kind == ConstraintKind::Or && class.or_trees.len() != 1 {
                return Err(MdesError::EmptyOrTree);
            }
        }
        for &(p, c, _) in &bypasses {
            if p as usize >= classes.len() || c as usize >= classes.len() {
                return Err(MdesError::UnknownClass(format!("bypass {p}->{c}")));
            }
        }
        let (checks, option_bounds) = flatten_options(&options);
        let pools = Pools {
            checks,
            option_bounds,
            or_trees,
            classes,
            bypasses,
        };
        Ok(CompiledMdes::from_pools(
            encoding,
            num_resources,
            pools,
            min_time,
            max_time,
        ))
    }

    /// Assembles a compiled MDES from pools already in its layout (see
    /// [`Pools`] for what the caller vouches for).
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
            checks: pools.checks,
            option_bounds: pools.option_bounds,
            or_trees: pools.or_trees,
            classes: pools.classes,
            bypasses: pools.bypasses,
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
        self.option_bounds.len() - 1
    }

    /// The probes of option `idx`, as a view into the flat check arena.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is not a valid option index.
    pub fn option_checks(&self, idx: usize) -> Checks<'_> {
        let lo = self.option_bounds[idx] as usize;
        let hi = self.option_bounds[idx + 1] as usize;
        Checks {
            checks: &self.checks[lo..hi],
        }
    }

    /// Total number of probes stored in the check arena.
    pub fn num_checks(&self) -> usize {
        self.checks.len()
    }

    /// The compiled OR-tree pool.
    pub fn or_trees(&self) -> &[CompiledOrTree] {
        &self.or_trees
    }

    /// The compiled classes, indexable by [`ClassId`].
    pub fn classes(&self) -> &[CompiledClass] {
        &self.classes
    }

    /// The compiled class for `id`.
    ///
    /// # Panics
    ///
    /// Panics on a [`ClassId`] from a different MDES.
    pub fn class(&self, id: ClassId) -> &CompiledClass {
        &self.classes[id.index()]
    }

    /// Looks a class up by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
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
        self.class(id)
            .or_trees
            .iter()
            .map(|&t| self.or_trees[t as usize].options.len())
            .product()
    }
}

/// Flattens per-option check lists into the arena pair
/// `(checks, option_bounds)`.
fn flatten_options(options: &[CompiledOption]) -> (Vec<CompiledCheck>, Vec<u32>) {
    let total: usize = options.iter().map(|o| o.checks.len()).sum();
    let mut checks = Vec::with_capacity(total);
    let mut bounds = Vec::with_capacity(options.len() + 1);
    bounds.push(0u32);
    for option in options {
        checks.extend_from_slice(&option.checks);
        bounds.push(checks.len() as u32);
    }
    (checks, bounds)
}

/// Compiles one spec option into its probe sequence.
fn compile_option(
    spec: &MdesSpec,
    id: crate::spec::OptionId,
    encoding: UsageEncoding,
) -> CompiledOption {
    let usages = &spec.option(id).usages;
    let checks = match encoding {
        UsageEncoding::Scalar => usages
            .iter()
            .map(|u| CompiledCheck {
                time: u.time,
                mask: u.resource.bit(),
            })
            .collect(),
        UsageEncoding::BitVector => {
            // Group usages by cycle, preserving the first-occurrence order
            // of cycles so the check-ordering transformation's choice of
            // "time zero first" survives packing.
            let mut checks: Vec<CompiledCheck> = Vec::new();
            for u in usages {
                match checks.iter_mut().find(|c| c.time == u.time) {
                    Some(check) => check.mask |= u.resource.bit(),
                    None => checks.push(CompiledCheck {
                        time: u.time,
                        mask: u.resource.bit(),
                    }),
                }
            }
            checks
        }
    };
    CompiledOption { checks }
}

/// The result of a successful reservation: which compiled option was
/// selected from each OR-tree of the class, at which issue time.
///
/// Keeping the choice around makes unscheduling possible — the capability
/// the paper notes finite-state-automata approaches lack (Section 10).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Choice {
    /// The class that was scheduled.
    pub class: ClassId,
    /// Issue cycle.
    pub time: i32,
    /// Selected compiled-option index per OR-tree of the class, in the
    /// class's OR-tree order.
    pub selected: Vec<u32>,
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
    /// `time`.  On success the RU map is updated and the selection is
    /// returned; on failure the RU map is left unchanged.
    ///
    /// Every call counts as one *scheduling attempt* in `stats`.  A
    /// convenience wrapper over [`Checker::try_reserve_into`] for callers
    /// that keep the [`Choice`] to unschedule later; schedulers that place
    /// many operations append into one buffer instead.
    #[inline]
    pub fn try_reserve<M: Occupancy>(
        &self,
        ru: &mut M,
        class: ClassId,
        time: i32,
        stats: &mut CheckStats,
    ) -> Option<Choice> {
        let mut selected = Vec::with_capacity(self.mdes.class(class).or_trees.len());
        self.try_reserve_into(ru, class, time, stats, &mut selected)
            .then_some(Choice {
                class,
                time,
                selected,
            })
    }

    /// The allocation-free reservation query: like
    /// [`Checker::try_reserve`], but the selection goes into a
    /// caller-owned buffer.
    ///
    /// This is the one reservation loop, and every scheduler reserves
    /// through it: the list schedulers and the automaton baseline on a
    /// [`crate::RuMap`], the modulo schedulers on a [`crate::ModuloRuMap`].
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
        for &tree_idx in &self.mdes.class(class).or_trees {
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

    /// True if `class` could be reserved at `time` without changing the RU
    /// map.  Costs the same checks as [`Checker::try_reserve`].
    pub fn can_reserve<M: Occupancy>(
        &self,
        ru: &mut M,
        class: ClassId,
        time: i32,
        stats: &mut CheckStats,
    ) -> bool {
        if let Some(choice) = self.try_reserve(ru, class, time, stats) {
            self.release(ru, time, &choice.selected);
            true
        } else {
            false
        }
    }

    /// True when every probe of option `opt_idx` finds its resources free
    /// at issue time `time`, counting one option attempt in `stats`.
    /// Walks one dense slice of the shared check arena.
    ///
    /// This is the probe the greedy OR-tree walk makes for each option.
    /// Exact-search clients (the oracle schedulers in `mdes-oracle`)
    /// branch over individual OR-tree options instead of accepting the
    /// greedy first-feasible pick of [`Checker::try_reserve`], so they
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
        let lo = self.mdes.option_bounds[opt_idx as usize] as usize;
        let hi = self.mdes.option_bounds[opt_idx as usize + 1] as usize;
        for check in &self.mdes.checks[lo..hi] {
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
        let lo = self.mdes.option_bounds[opt_idx as usize] as usize;
        let hi = self.mdes.option_bounds[opt_idx as usize + 1] as usize;
        for check in &self.mdes.checks[lo..hi] {
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
    // a caller's `try_reserve`, the `checker/*` benches ran 5-15% slower
    // (2-vCPU container, alternating runs).
    #[inline(never)]
    fn try_or_tree<M: Occupancy>(
        &self,
        ru: &M,
        tree_idx: u32,
        time: i32,
        stats: &mut CheckStats,
    ) -> Option<u32> {
        self.mdes.or_trees[tree_idx as usize]
            .options
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
        let checks = compiled.option_checks(0);
        assert_eq!(checks.len(), 2);
        assert_eq!(
            checks.at(0),
            CompiledCheck {
                time: 0,
                mask: 0b011
            }
        );
        assert_eq!(
            checks.at(1),
            CompiledCheck {
                time: 1,
                mask: 0b100
            }
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
        assert_eq!(checks.at(0).time, 1);
        assert_eq!(checks.at(0).mask, 0b110);
        assert_eq!(checks.at(1).time, 0);
    }

    #[test]
    fn try_reserve_picks_highest_priority_free_option() {
        let spec = andor_spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let checker = Checker::new(&compiled);
        let class = compiled.class_by_name("load").unwrap();
        let mut ru = RuMap::new();
        let mut stats = CheckStats::new();

        let first = checker.try_reserve(&mut ru, class, 0, &mut stats).unwrap();
        // Decoder 0 (compiled option index 0) chosen from the decoder tree.
        assert_eq!(first.selected.len(), 2);
        assert!(!ru.is_free(-1, 0b01)); // Dec[0] at time -1
        assert!(!ru.is_free(0, 0b100)); // M at time 0

        // Second load in the same cycle: M is busy, so it must fail and
        // leave the map untouched.
        let pop_before = ru.population();
        assert!(checker.try_reserve(&mut ru, class, 0, &mut stats).is_none());
        assert_eq!(ru.population(), pop_before);

        // One cycle later, decoder 1 is... actually all resources free at
        // t=1 (usages are relative), so it succeeds with decoder 0 again.
        let second = checker.try_reserve(&mut ru, class, 1, &mut stats).unwrap();
        assert_eq!(second.selected, first.selected);
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
        // the rollback must free M again.
        ru.reserve(-1, 0b11);
        assert!(checker.try_reserve(&mut ru, class, 0, &mut stats).is_none());
        assert!(ru.is_free(0, 0b100), "M must be rolled back");
    }

    #[test]
    fn release_undoes_try_reserve() {
        let spec = andor_spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let checker = Checker::new(&compiled);
        let class = compiled.class_by_name("load").unwrap();
        let mut ru = RuMap::new();
        let mut stats = CheckStats::new();

        let choice = checker.try_reserve(&mut ru, class, 3, &mut stats).unwrap();
        assert!(ru.population() > 0);
        checker.release(&mut ru, choice.time, &choice.selected);
        assert_eq!(ru.population(), 0);
    }

    #[test]
    fn can_reserve_does_not_mutate_map() {
        let spec = andor_spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let checker = Checker::new(&compiled);
        let class = compiled.class_by_name("load").unwrap();
        let mut ru = RuMap::new();
        let mut stats = CheckStats::new();
        assert!(checker.can_reserve(&mut ru, class, 0, &mut stats));
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
        assert!(checker.try_reserve(&mut ru, class, 0, &mut stats).is_none());
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

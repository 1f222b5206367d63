//! Static diagnostics for machine descriptions.
//!
//! The paper's transformations (Sections 5–8) are consequences of
//! statically provable properties of an MDES: a dominated option can
//! never be selected, a dead item can never be reached, shifted usage
//! times change no collision vector.  This crate runs that analysis as a
//! *front line* — before a description is compiled, served, or fuzzed —
//! and reports what it proves as structured [`Diagnostic`]s with stable
//! `MDnnn` codes and fatal/warn/info severities.  No scheduler ever runs.
//!
//! The entry point is [`analyze_spec`], the mid-level analysis over an
//! [`MdesSpec`]: semantic dominance (collision-vector difference sets,
//! strictly more powerful than the syntactic superset check of
//! `mdes-opt`), unsatisfiable AND-trees, unreferenced/dead items,
//! latency-window overflow, and missed-transformation lints.
//!
//! The image codes `MD101`–`MD106` in [`CODE_REGISTRY`] are not produced
//! here: the LMDES decoder (`mdes_core::lmdes`) names the fault class of
//! every image it rejects, and this registry only documents them
//! alongside the spec codes.
//!
//! The dominance analysis carries a soundness contract the dynamic side
//! referees: an option reported dead by [`Analysis::dead_options`] is
//! never selected by any checker on any probe stream (see
//! `tests/analyze_soundness.rs` and `docs/analysis.md`).
//!
//! ```
//! use mdes_analyze::{analyze_spec, Severity};
//!
//! let spec = mdes_lang::compile("
//!     resource Dec[2];
//!     or_tree AnyDec = first_of(
//!         { Dec[0] @ 0 },
//!         { Dec[0] @ 0, Dec[1] @ 0 });   // superset: can never win
//!     class alu { constraint = AnyDec; }
//!     op ADD = alu;
//! ").unwrap();
//! let analysis = analyze_spec(&spec);
//! assert!(analysis.diagnostics.iter().any(|d| d.code == "MD002"));
//! assert_eq!(analysis.count(Severity::Fatal), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dominance;
mod unsat;

use std::fmt;
use std::fmt::Write as _;

use mdes_core::spec::{Constraint, MdesSpec};
use mdes_opt::sortzero::unsorted_options;
use mdes_opt::timeshift::{shift_constants, Direction};
use mdes_telemetry::json::Json;
use mdes_telemetry::Telemetry;

/// Largest |check time| the serving layer accepts (cycles relative to
/// issue).  The RU map's window is conceptually infinite — reads outside
/// it answer "free", releases are no-ops — so a usage time beyond this
/// bound is never *wrong*, but it silently stops constraining anything
/// once it leaves the physical window and it makes every reservation
/// walk pathological.  `mdes_guard::vet_image` enforces the same bound
/// dynamically; [`analyze_spec`] proves it before an image exists.
pub const MAX_CHECK_TIME: i32 = 4096;

/// Largest |latency| the serving layer accepts, same rationale as
/// [`MAX_CHECK_TIME`].
pub const MAX_LATENCY: i32 = 4096;

/// How bad a diagnostic is.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The description (or image) must not be compiled, served, or
    /// optimized: an operation can never issue, or the serving layer's
    /// policy bounds are provably violated.
    Fatal,
    /// Provably dead or redundant information: safe to serve, but the
    /// description has rotted and should be cleaned.
    Warn,
    /// A missed-transformation opportunity with an estimated saving.
    Info,
}

impl Severity {
    /// Lowercase display name (`fatal`, `warn`, `info`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Fatal => "fatal",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a diagnostic points at, as pool indices into the analyzed spec.
/// Drives the dynamic soundness harness and the defect-recall tests;
/// rendering uses names instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// Nothing structured (summary diagnostics).
    None,
    /// A class, by index.
    Class(usize),
    /// One option within one OR-tree (both by index): the unit the
    /// dominance proof speaks about.
    OrTreeOption {
        /// OR-tree index.
        tree: usize,
        /// Option index (pool index, identical to the compiled option
        /// index).
        option: usize,
    },
    /// A resource, by index.
    Resource(usize),
    /// An OR-tree, by index.
    OrTree(usize),
}

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, `MD001`–`MD106`; see `docs/analysis.md` for the
    /// registry.  Codes are append-only: a code never changes meaning.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable message.  Deterministic: equal specs produce equal
    /// messages.
    pub message: String,
    /// The declared name the diagnostic is about (class, OR-tree or
    /// resource name), when one exists — the anchor [`anchor_spans`]
    /// resolves against HMDL source.
    pub item: Option<String>,
    /// `(line, column)`, 1-based, in the HMDL source — filled by
    /// [`anchor_spans`] when the source is available.
    pub span: Option<(usize, usize)>,
    /// Structured reference for programmatic consumers.
    pub target: Target,
}

impl Diagnostic {
    fn new(code: &'static str, severity: Severity, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message,
            item: None,
            span: None,
            target: Target::None,
        }
    }

    fn with_item(mut self, item: impl Into<String>) -> Diagnostic {
        self.item = Some(item.into());
        self
    }

    fn with_target(mut self, target: Target) -> Diagnostic {
        self.target = target;
        self
    }
}

/// The diagnostic code registry: `(code, severity, summary)`.
/// `docs/analysis.md` renders this table; the doc test there keeps the
/// two in sync.
pub const CODE_REGISTRY: &[(&str, Severity, &str)] = &[
    (
        "MD001",
        Severity::Fatal,
        "unsatisfiable class: every option combination reuses a resource in the same cycle",
    ),
    (
        "MD002",
        Severity::Warn,
        "dominated option (syntactic): usages are a superset of a higher-priority option",
    ),
    (
        "MD003",
        Severity::Warn,
        "dominated option (semantic): difference-set proof that it can never be selected",
    ),
    (
        "MD004",
        Severity::Warn,
        "duplicate option: structurally identical to an earlier option",
    ),
    (
        "MD005",
        Severity::Warn,
        "unreferenced items: options/OR-trees/AND-OR-trees unreachable from any class",
    ),
    (
        "MD006",
        Severity::Warn,
        "unused resource: no option ever uses it",
    ),
    (
        "MD007",
        Severity::Info,
        "class without opcodes: unreachable from the compiler's vocabulary",
    ),
    (
        "MD008",
        Severity::Fatal,
        "latency-window overflow: a usage time or latency exceeds the serving policy bound",
    ),
    (
        "MD009",
        Severity::Info,
        "missed time shift: per-resource usage times carry removable constant offsets",
    ),
    (
        "MD010",
        Severity::Info,
        "missed check ordering: options do not probe cycle zero first",
    ),
    (
        "MD011",
        Severity::Info,
        "missed factoring: a usage common to every option of an OR-tree is duplicated",
    ),
    (
        "MD101",
        Severity::Fatal,
        "image: bad magic — not an LMDES image",
    ),
    ("MD102", Severity::Fatal, "image: truncated header"),
    (
        "MD103",
        Severity::Fatal,
        "image: truncated body — structure runs past the end of the image",
    ),
    ("MD104", Severity::Fatal, "image: implausible count field"),
    (
        "MD105",
        Severity::Fatal,
        "image: trailing garbage after a complete structure",
    ),
    (
        "MD106",
        Severity::Fatal,
        "image: malformed field (bad enum value or dangling index)",
    ),
];

/// The result of one analysis run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Analysis {
    /// Every finding, in deterministic order (analysis order, then pool
    /// index order).
    pub diagnostics: Vec<Diagnostic>,
    /// How many items (options, trees, classes, resources) the run
    /// walked — the bench harness's work unit.
    pub items_analyzed: usize,
}

impl Analysis {
    /// Diagnostics at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True if any diagnostic is fatal — the gate the guard, the serve
    /// reload hook, and `mdesc lint`'s exit code all share.
    pub fn has_fatal(&self) -> bool {
        self.count(Severity::Fatal) > 0
    }

    /// The `(or_tree, option)` pairs proved dead by the dominance
    /// analysis: pairs the checkers must never select.
    ///
    /// An option id can appear at several positions of one tree; it is
    /// dead in that tree only if *every* position is dominated, which is
    /// what the per-position proofs in [`analyze_spec`] guarantee before
    /// a pair lands here.
    pub fn dead_options(&self) -> Vec<(usize, usize)> {
        self.diagnostics
            .iter()
            .filter(|d| d.code == "MD002" || d.code == "MD003")
            .filter_map(|d| match d.target {
                Target::OrTreeOption { tree, option } => Some((tree, option)),
                _ => None,
            })
            .collect()
    }

    /// First fatal diagnostic, for one-line error details.
    pub fn first_fatal(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Fatal)
    }
}

/// Runs the full static analysis over a mid-level description.
///
/// Read-only and deterministic: equal specs produce equal [`Analysis`]
/// values, byte for byte.  Never panics on a validated spec.
pub fn analyze_spec(spec: &MdesSpec) -> Analysis {
    analyze_spec_with_telemetry(spec, &Telemetry::disabled())
}

/// [`analyze_spec`] recording `analyze/*` counters, gauges and the
/// analysis-time span into `tel` (see `docs/telemetry.md`).
pub fn analyze_spec_with_telemetry(spec: &MdesSpec, tel: &Telemetry) -> Analysis {
    let _span = tel.span("analyze");
    let mut diags = Vec::new();

    // (2) Unsatisfiable classes — fatal: the operation can never issue.
    unsat::unsatisfiable_classes(spec, &mut diags);

    // (4) Latency-window overflow — fatal: the serving policy bound is
    // provably violated before any image exists.
    window_overflow(spec, &mut diags);

    // (1) Dominance: syntactic supersets and the semantic
    // difference-set proof.
    let dominated = dominance::dominance_diagnostics(spec, &mut diags);

    // Duplicate options (the Section 5 copy-paste smell).
    duplicate_options(spec, &mut diags);

    // (3) Unreferenced / dead items, cross-checked against the opt
    // pipeline's own sweep.
    dead_items(spec, &mut diags);

    // (5) Missed-transformation lints.
    missed_time_shift(spec, &mut diags);
    missed_check_ordering(spec, &mut diags);
    missed_factoring(spec, &mut diags);

    let items_analyzed = spec.num_options()
        + spec.num_or_trees()
        + spec.num_and_or_trees()
        + spec.num_classes()
        + spec.resources().len();
    let analysis = Analysis {
        diagnostics: diags,
        items_analyzed,
    };

    tel.counter_add("analyze/runs", 1);
    tel.counter_add("analyze/diags", analysis.diagnostics.len() as u64);
    tel.counter_add(
        "analyze/diags/fatal",
        analysis.count(Severity::Fatal) as u64,
    );
    tel.counter_add("analyze/diags/warn", analysis.count(Severity::Warn) as u64);
    tel.counter_add("analyze/diags/info", analysis.count(Severity::Info) as u64);
    tel.counter_add("analyze/dominated_options", dominated as u64);
    tel.gauge_set("analyze/items", analysis.items_analyzed as f64);
    analysis
}

/// MD008: usage times and latencies beyond the serving policy bounds.
fn window_overflow(spec: &MdesSpec, diags: &mut Vec<Diagnostic>) {
    for id in spec.option_ids() {
        let option = spec.option(id);
        let worst = option.usages.iter().map(|u| u.time.abs()).max();
        if let Some(worst) = worst {
            if worst > MAX_CHECK_TIME {
                diags.push(Diagnostic::new(
                    "MD008",
                    Severity::Fatal,
                    format!(
                        "option #{} uses a resource {worst} cycles from issue \
                         (policy bound {MAX_CHECK_TIME}): outside the physical RU window \
                         the check never constrains anything",
                        id.index()
                    ),
                ));
            }
        }
    }
    for id in spec.class_ids() {
        let class = spec.class(id);
        let lat = &class.latency;
        let worst = lat.dest.abs().max(lat.src.abs()).max(lat.mem.abs());
        if worst > MAX_LATENCY {
            diags.push(
                Diagnostic::new(
                    "MD008",
                    Severity::Fatal,
                    format!(
                        "class `{}` declares a {worst}-cycle latency (policy bound {MAX_LATENCY})",
                        class.name
                    ),
                )
                .with_item(class.name.clone())
                .with_target(Target::Class(id.index())),
            );
        }
    }
}

/// MD004: structurally identical options (same canonical usages).
fn duplicate_options(spec: &MdesSpec, diags: &mut Vec<Diagnostic>) {
    let mut seen: std::collections::BTreeMap<Vec<(usize, i32)>, usize> =
        std::collections::BTreeMap::new();
    for id in spec.option_ids() {
        let shape: Vec<(usize, i32)> = spec
            .option(id)
            .canonical_usages()
            .iter()
            .map(|u| (u.resource.index(), u.time))
            .collect();
        match seen.get(&shape) {
            Some(&first) => diags.push(Diagnostic::new(
                "MD004",
                Severity::Warn,
                format!(
                    "option #{} duplicates option #{first} (redundancy elimination would merge them)",
                    id.index()
                ),
            )),
            None => {
                seen.insert(shape, id.index());
            }
        }
    }
}

/// MD005/MD006/MD007: items unreachable from any class or opcode.  The
/// counts come from the same `sweep_unreferenced` the opt pipeline's
/// dead-code stage runs, so analyzer and optimizer can never disagree
/// about what is dead.
fn dead_items(spec: &MdesSpec, diags: &mut Vec<Diagnostic>) {
    let mut probe = spec.clone();
    let sweep = probe.sweep_unreferenced();
    if sweep.total() > 0 {
        diags.push(Diagnostic::new(
            "MD005",
            Severity::Warn,
            format!(
                "{} option(s), {} OR-tree(s) and {} AND/OR-tree(s) are not reachable from any class",
                sweep.options_removed, sweep.or_trees_removed, sweep.and_or_trees_removed
            ),
        ));
    }
    let mut used = vec![false; spec.resources().len()];
    for id in spec.option_ids() {
        for usage in &spec.option(id).usages {
            used[usage.resource.index()] = true;
        }
    }
    for (id, name) in spec.resources().iter() {
        if !used[id.index()] {
            diags.push(
                Diagnostic::new(
                    "MD006",
                    Severity::Warn,
                    format!("resource `{name}` is never used by any option"),
                )
                .with_item(name.to_string())
                .with_target(Target::Resource(id.index())),
            );
        }
    }
    for id in spec.class_ids() {
        if spec.opcodes_of_class(id).is_empty() {
            let name = spec.class(id).name.clone();
            diags.push(
                Diagnostic::new(
                    "MD007",
                    Severity::Info,
                    format!(
                        "class `{name}` has no opcodes mapped to it \
                         (internal classes are fine; otherwise it is dead vocabulary)"
                    ),
                )
                .with_item(name)
                .with_target(Target::Class(id.index())),
            );
        }
    }
}

/// MD009: nonzero forward shift constants mean usage times carry
/// removable offsets (Section 7's time-shifting, not yet applied).
fn missed_time_shift(spec: &MdesSpec, diags: &mut Vec<Diagnostic>) {
    let constants = shift_constants(spec, Direction::Forward);
    let mut shiftable: Vec<(usize, i32)> = constants
        .iter()
        .filter(|(_, &c)| c != 0)
        .map(|(r, &c)| (r.index(), c))
        .collect();
    if shiftable.is_empty() {
        return;
    }
    shiftable.sort_unstable();
    let total: i64 = shiftable.iter().map(|&(_, c)| i64::from(c.abs())).sum();
    diags.push(Diagnostic::new(
        "MD009",
        Severity::Info,
        format!(
            "{} resource(s) carry removable usage-time offsets totalling {total} cycle(s); \
             time shifting would normalize them toward issue",
            shiftable.len()
        ),
    ));
}

/// MD010: options whose check order does not probe cycle zero first
/// (Section 7's check ordering, not yet applied).
fn missed_check_ordering(spec: &MdesSpec, diags: &mut Vec<Diagnostic>) {
    let unsorted = unsorted_options(spec, Direction::Forward);
    if unsorted.is_empty() {
        return;
    }
    diags.push(Diagnostic::new(
        "MD010",
        Severity::Info,
        format!(
            "{} option(s) do not probe cycle zero first; check ordering would fail \
             conflicting attempts on the first probe",
            unsorted.len()
        ),
    ));
}

/// MD011: a usage shared by every option of a multi-option OR-tree is
/// stored (and checked) once per option instead of once per tree
/// (Section 6's common-usage factoring, not yet applied).
fn missed_factoring(spec: &MdesSpec, diags: &mut Vec<Diagnostic>) {
    for tree_id in spec.or_tree_ids() {
        let tree = spec.or_tree(tree_id);
        if tree.options.len() < 2 {
            continue;
        }
        let mut common = spec.option(tree.options[0]).canonical_usages();
        for &opt in &tree.options[1..] {
            let usages = spec.option(opt).canonical_usages();
            common.retain(|u| usages.binary_search(u).is_ok());
            if common.is_empty() {
                break;
            }
        }
        if common.is_empty() {
            continue;
        }
        let name = tree
            .name
            .clone()
            .unwrap_or_else(|| format!("#{}", tree_id.index()));
        let saving = common.len() * (tree.options.len() - 1);
        diags.push(
            Diagnostic::new(
                "MD011",
                Severity::Info,
                format!(
                    "or_tree {name}: {} usage(s) appear in all {} options; factoring would \
                     drop {saving} duplicated usage(s) and check(s)",
                    common.len(),
                    tree.options.len()
                ),
            )
            .with_item(name)
            .with_target(Target::OrTree(tree_id.index())),
        );
    }
}

/// OR-trees reachable from some class constraint, in index order, and
/// the set of options reachable through them.  Dominance and
/// unsatisfiability only speak about reachable structure: an
/// unreferenced tree can never be reserved, so nothing it could prove
/// is observable (dead *items* are MD005's business).
pub(crate) fn reachable(spec: &MdesSpec) -> (Vec<usize>, Vec<usize>) {
    let mut trees: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for class in spec.class_ids() {
        match spec.class(class).constraint {
            Constraint::Or(tree) => {
                trees.insert(tree.index());
            }
            Constraint::AndOr(tree) => {
                for or in &spec.and_or_tree(tree).or_trees {
                    trees.insert(or.index());
                }
            }
        }
    }
    let mut options: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for &tree in &trees {
        for opt in &spec
            .or_tree(mdes_core::spec::OrTreeId::from_index(tree))
            .options
        {
            options.insert(opt.index());
        }
    }
    (trees.into_iter().collect(), options.into_iter().collect())
}

/// Fills [`Diagnostic::span`] for diagnostics whose [`Diagnostic::item`]
/// is declared in `source` (HMDL text): the anchor is the first
/// `resource`/`or_tree`/`and_or_tree`/`class` declaration of that name.
/// Diagnostics about synthetic or unnamed items keep `span: None`.
pub fn anchor_spans(diags: &mut [Diagnostic], source: &str) {
    for diag in diags.iter_mut() {
        let Some(item) = &diag.item else { continue };
        diag.span = find_declaration(source, item);
    }
}

/// Locates the declaration of `name` in HMDL source: a declaration
/// keyword followed by `name` as a whole word.  Returns 1-based
/// `(line, column)` of the name token.
fn find_declaration(source: &str, name: &str) -> Option<(usize, usize)> {
    // Indexed resources are declared under their base name.
    let base = name.split('[').next().unwrap_or(name);
    for (line_no, line) in source.lines().enumerate() {
        for keyword in ["resource", "or_tree", "and_or_tree", "class"] {
            let Some(kw_at) = find_word(line, keyword) else {
                continue;
            };
            let rest = &line[kw_at + keyword.len()..];
            let trimmed = rest.trim_start();
            if let Some(found) = trimmed.strip_prefix(base) {
                let boundary = found
                    .chars()
                    .next()
                    .is_none_or(|c| !c.is_alphanumeric() && c != '_');
                if boundary {
                    let col = kw_at + keyword.len() + (rest.len() - trimmed.len());
                    return Some((line_no + 1, col + 1));
                }
            }
        }
    }
    None
}

/// Byte offset of `word` in `line` as a whole word, if present.
fn find_word(line: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(at) = line[from..].find(word) {
        let at = from + at;
        let before_ok = at == 0
            || line[..at]
                .chars()
                .next_back()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after_ok = line[at + word.len()..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len();
    }
    None
}

/// Renders an analysis as the canonical `mdesc lint` text lines, one
/// diagnostic per line, prefixed with `origin` (a path or machine name)
/// and the source span when anchored.  Byte-deterministic: equal
/// analyses render equal text.
pub fn render_text(origin: &str, analysis: &Analysis) -> String {
    let mut out = String::new();
    for diag in &analysis.diagnostics {
        match diag.span {
            Some((line, col)) => {
                let _ = writeln!(
                    out,
                    "{origin}:{line}:{col}: {} {}: {}",
                    diag.code, diag.severity, diag.message
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{origin}: {} {}: {}",
                    diag.code, diag.severity, diag.message
                );
            }
        }
    }
    out
}

/// Renders an analysis as a JSON array (zero-dependency, like the
/// telemetry report writer).  Byte-deterministic.
pub fn render_json(origin: &str, analysis: &Analysis) -> String {
    render_json_many([(origin, analysis)])
}

/// Renders several `(origin, analysis)` reports as one JSON array, in
/// order — what `mdesc lint --json` emits when it covers more than one
/// machine.  Byte-deterministic; a single-element iterator reproduces
/// [`render_json`] exactly.
pub fn render_json_many<'a, I>(targets: I) -> String
where
    I: IntoIterator<Item = (&'a str, &'a Analysis)>,
{
    let entries: Vec<(&str, &Diagnostic)> = targets
        .into_iter()
        .flat_map(|(origin, analysis)| analysis.diagnostics.iter().map(move |d| (origin, d)))
        .collect();
    let string = |text: &str| Json::Str(text.to_string()).render();
    let mut out = String::new();
    out.push_str("[\n");
    for (i, (origin, diag)) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"origin\": {}, \"code\": \"{}\", \"severity\": \"{}\", \"message\": {}",
            string(origin),
            diag.code,
            diag.severity,
            string(&diag.message)
        );
        if let Some(item) = &diag.item {
            let _ = write!(out, ", \"item\": {}", string(item));
        }
        if let Some((line, col)) = diag.span {
            let _ = write!(out, ", \"line\": {line}, \"col\": {col}");
        }
        out.push('}');
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_opt::pipeline::{optimize, PipelineConfig};

    fn compile(src: &str) -> MdesSpec {
        mdes_lang::compile(src).unwrap()
    }

    const MESSY: &str = "
        resource Dec[2];
        resource Ghost;
        or_tree T = first_of(
            { Dec[0] @ 0 },
            { Dec[0] @ 0 },              // duplicate
            { Dec[0] @ 0, Dec[1] @ 0 }); // dominated
        or_tree Orphan = first_of({ Dec[1] @ 3 });
        class alu { constraint = T; }
    ";

    #[test]
    fn messy_description_triggers_every_maintenance_code() {
        let analysis = analyze_spec(&compile(MESSY));
        let codes: Vec<&str> = analysis.diagnostics.iter().map(|d| d.code).collect();
        for expected in ["MD002", "MD004", "MD005", "MD006", "MD007"] {
            assert!(codes.contains(&expected), "missing {expected}: {codes:?}");
        }
        assert!(!analysis.has_fatal());
    }

    #[test]
    fn tidy_description_is_clean() {
        let analysis = analyze_spec(&compile(
            "resource M;
             or_tree T = first_of({ M @ 0 });
             class mem { constraint = T; flags = load; }
             op LD = mem;",
        ));
        assert!(
            analysis.diagnostics.is_empty(),
            "{:?}",
            analysis.diagnostics
        );
    }

    #[test]
    fn analysis_is_deterministic_and_read_only() {
        let spec = compile(MESSY);
        let before = spec.clone();
        let first = analyze_spec(&spec);
        let second = analyze_spec(&spec);
        assert_eq!(first, second);
        assert_eq!(render_text("m", &first), render_text("m", &second));
        assert_eq!(spec, before);
    }

    #[test]
    fn dead_items_match_the_pipelines_own_sweep() {
        let spec = compile(MESSY);
        let analysis = analyze_spec(&spec);
        let mut swept = spec.clone();
        let report = swept.sweep_unreferenced();
        let md005 = analysis.diagnostics.iter().find(|d| d.code == "MD005");
        assert!(report.total() > 0);
        assert!(md005.is_some());
        // After the full pipeline the dead items are gone and the
        // analyzer agrees: the cross-check in both directions.
        let mut optimized = spec;
        optimize(&mut optimized, &PipelineConfig::full());
        let after = analyze_spec(&optimized);
        assert!(
            !after.diagnostics.iter().any(|d| d.code == "MD005"),
            "{:?}",
            after.diagnostics
        );
    }

    #[test]
    fn window_overflow_is_fatal() {
        let mut spec = MdesSpec::new();
        let r = spec.resources_mut().add("R").unwrap();
        let opt = spec.add_option(mdes_core::spec::TableOption::new(vec![
            mdes_core::usage::ResourceUsage::new(r, MAX_CHECK_TIME + 1),
        ]));
        let tree = spec.add_or_tree(mdes_core::spec::OrTree::new(vec![opt]));
        spec.add_class(
            "op",
            Constraint::Or(tree),
            mdes_core::spec::Latency::new(1),
            mdes_core::spec::OpFlags::none(),
        )
        .unwrap();
        let analysis = analyze_spec(&spec);
        assert!(analysis.has_fatal());
        assert_eq!(analysis.first_fatal().unwrap().code, "MD008");
    }

    #[test]
    fn missed_transformation_lints_fire_and_clear() {
        let raw = compile(
            "resource Bus;
             resource Dec[2];
             or_tree T = first_of(
                 { Bus @ 2, Dec[0] @ 3 },
                 { Bus @ 2, Dec[1] @ 3 });
             class alu { constraint = T; }
             op ADD = alu;",
        );
        let analysis = analyze_spec(&raw);
        let codes: Vec<&str> = analysis.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"MD009"), "{codes:?}"); // Bus always at +2
        assert!(codes.contains(&"MD011"), "{codes:?}"); // Bus common to both
    }

    #[test]
    fn spans_anchor_to_declarations() {
        let source = "resource M;\nor_tree T = first_of({ M @ 0 });\nclass idle { constraint = T; }\nclass used { constraint = T; }\nop NOP = used;";
        let spec = compile(source);
        let mut analysis = analyze_spec(&spec);
        anchor_spans(&mut analysis.diagnostics, source);
        let idle = analysis
            .diagnostics
            .iter()
            .find(|d| d.item.as_deref() == Some("idle"))
            .expect("class-without-opcodes diagnostic");
        assert_eq!(idle.span, Some((3, 7)));
    }

    #[test]
    fn registry_covers_every_emitted_code() {
        let registered: Vec<&str> = CODE_REGISTRY.iter().map(|(c, _, _)| *c).collect();
        let spec = compile(MESSY);
        for diag in analyze_spec(&spec).diagnostics {
            assert!(
                registered.contains(&diag.code),
                "{} unregistered",
                diag.code
            );
        }
    }

    #[test]
    fn json_rendering_is_valid_enough_and_deterministic() {
        let spec = compile(MESSY);
        let a = render_json("messy", &analyze_spec(&spec));
        let b = render_json("messy", &analyze_spec(&spec));
        assert_eq!(a, b);
        assert!(a.starts_with("[\n"));
        assert!(a.trim_end().ends_with(']'));
        assert!(a.contains("\"code\": \"MD002\""));
    }
}

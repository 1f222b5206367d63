//! Detailed HMDL descriptions of the four processors evaluated by the
//! paper: HP PA7100, Intel Pentium, Sun SuperSPARC and AMD K5.
//!
//! Each description reconstructs the execution constraints the paper
//! itself documents (Sections 2 and 4 plus Tables 1–4), with exactly the
//! per-class reservation-table option counts the paper reports.  The
//! descriptions deliberately retain the kinds of redundant and unused
//! information the paper discusses in Section 5 (copy-pasted trees, a
//! stale duplicate option in the PA7100 memory pipeline, dead
//! experimental trees), so the redundancy-elimination experiments have
//! their intended inputs.
//!
//! # Example
//!
//! ```
//! use mdes_machines::Machine;
//!
//! let spec = Machine::SuperSparc.spec();
//! let load = spec.class_by_name("load").unwrap();
//! assert_eq!(spec.class_option_count(load), 6); // the paper's Figure 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mdes_core::MdesSpec;

/// The four processors of the paper's evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Machine {
    /// HP PA7100 (in-order, two-issue).
    Pa7100,
    /// Intel Pentium (in-order, two-pipe x86).
    Pentium,
    /// Sun SuperSPARC (in-order, three-issue).
    SuperSparc,
    /// AMD K5 (four-issue out-of-order x86, modeled in-order with
    /// buffering).
    K5,
}

impl Machine {
    /// All four machines in the paper's table order.
    pub fn all() -> [Machine; 4] {
        [
            Machine::Pa7100,
            Machine::Pentium,
            Machine::SuperSparc,
            Machine::K5,
        ]
    }

    /// Display name as the paper prints it.
    pub fn name(&self) -> &'static str {
        match self {
            Machine::Pa7100 => "PA7100",
            Machine::Pentium => "Pentium",
            Machine::SuperSparc => "SuperSPARC",
            Machine::K5 => "K5",
        }
    }

    /// Resolves a machine by its [`name`](Machine::name), ignoring ASCII
    /// case.
    ///
    /// # Errors
    ///
    /// Returns the message every name-taking command prints when `name`
    /// is not one of the four.
    pub fn from_name(name: &str) -> Result<Machine, String> {
        Machine::all()
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown machine `{name}` (PA7100, Pentium, SuperSPARC, K5)"))
    }

    /// The HMDL source text of this machine's description.
    pub fn source(&self) -> &'static str {
        match self {
            Machine::Pa7100 => include_str!("../hmdl/pa7100.hmdl"),
            Machine::Pentium => include_str!("../hmdl/pentium.hmdl"),
            Machine::SuperSparc => include_str!("../hmdl/superspark.hmdl"),
            Machine::K5 => include_str!("../hmdl/k5.hmdl"),
        }
    }

    /// Compiles the HMDL description into a validated spec.
    ///
    /// # Panics
    ///
    /// Panics if the bundled description fails to compile — a build-time
    /// invariant covered by tests.
    pub fn spec(&self) -> MdesSpec {
        match mdes_lang::compile(self.source()) {
            Ok(spec) => spec,
            Err(err) => panic!(
                "bundled {} description failed to compile:\n{}",
                self.name(),
                err.render(self.source())
            ),
        }
    }

    /// True for the machines the paper calls "complex" / "flexible"
    /// (where AND/OR-trees are decisive).
    pub fn is_flexible(&self) -> bool {
        matches!(self, Machine::SuperSparc | Machine::K5)
    }
}

/// Every bundled description, named as perf bench suffixes and
/// `mdesc oracle --machine` operands: the four [`Machine`]s in table
/// order under their lowercased names, then `pentiumpro` and
/// `superspark_approx`.
///
/// # Panics
///
/// Panics if a bundled description fails to compile (a build-time
/// invariant covered by tests).
pub fn bundled() -> Vec<(String, MdesSpec)> {
    bundled_sources()
        .into_iter()
        .map(|(name, source)| {
            let spec = mdes_lang::compile(source).unwrap_or_else(|err| {
                panic!(
                    "bundled {name} description failed to compile:\n{}",
                    err.render(source)
                )
            });
            (name, spec)
        })
        .collect()
}

/// The HMDL sources behind [`bundled`], under the same names and in the
/// same order.
pub fn bundled_sources() -> Vec<(String, &'static str)> {
    let mut sources: Vec<(String, &'static str)> = Machine::all()
        .into_iter()
        .map(|m| (m.name().to_lowercase(), m.source()))
        .collect();
    sources.push(("pentiumpro".to_string(), pentium_pro_source()));
    sources.push((
        "superspark_approx".to_string(),
        approximate_superspark_source(),
    ));
    sources
}

/// HMDL source of the speculative Pentium Pro (P6) demonstrator — the
/// "latest generation" machine the paper's Section 9 predicts will need
/// AND/OR-trees even more than the K5.  Not part of the paper's
/// evaluated set; used by the next-generation ablation.
pub fn pentium_pro_source() -> &'static str {
    include_str!("../hmdl/pentiumpro.hmdl")
}

/// Compiles the Pentium Pro demonstrator description.
///
/// # Panics
///
/// Panics if the bundled description fails to compile (a build-time
/// invariant covered by tests).
pub fn pentium_pro() -> MdesSpec {
    match mdes_lang::compile(pentium_pro_source()) {
        Ok(spec) => spec,
        Err(err) => panic!(
            "Pentium Pro description failed to compile:\n{}",
            err.render(pentium_pro_source())
        ),
    }
}

/// HMDL source of the *approximate* SuperSPARC description — the
/// "function unit mix and operation latencies" model the paper's
/// introduction attributes to portable compilers.  Class names, order,
/// latencies, flags and opcodes match [`Machine::SuperSparc`] exactly,
/// so the two descriptions are interchangeable to a scheduler; only the
/// execution constraints differ (no register ports, no branch-decoder
/// restriction, no cascade-unit restriction).
pub fn approximate_superspark_source() -> &'static str {
    include_str!("../hmdl/superspark_approx.hmdl")
}

/// Compiles the approximate SuperSPARC description.
///
/// # Panics
///
/// Panics if the bundled description fails to compile (a build-time
/// invariant covered by tests).
pub fn approximate_superspark() -> MdesSpec {
    match mdes_lang::compile(approximate_superspark_source()) {
        Ok(spec) => spec,
        Err(err) => panic!(
            "approximate SuperSPARC description failed to compile:\n{}",
            err.render(approximate_superspark_source())
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn option_counts(machine: Machine) -> BTreeMap<String, usize> {
        let spec = machine.spec();
        spec.class_ids()
            .map(|id| (spec.class(id).name.clone(), spec.class_option_count(id)))
            .collect()
    }

    #[test]
    fn all_descriptions_compile_and_validate() {
        for machine in Machine::all() {
            let spec = machine.spec();
            assert!(spec.validate().is_ok(), "{} invalid", machine.name());
            assert!(spec.num_classes() > 0);
        }
    }

    #[test]
    fn superspark_matches_table_1_option_counts() {
        let counts = option_counts(Machine::SuperSparc);
        assert_eq!(counts["branch"], 1);
        assert_eq!(counts["serial_op"], 1);
        assert_eq!(counts["fp_op"], 3);
        assert_eq!(counts["load"], 6);
        assert_eq!(counts["store"], 12);
        assert_eq!(counts["shift_1src"], 24);
        assert_eq!(counts["cascade_1src"], 24);
        assert_eq!(counts["shift_2src"], 36);
        assert_eq!(counts["cascade_2src"], 36);
        assert_eq!(counts["ialu_1src"], 48);
        assert_eq!(counts["ialu_2src"], 72);
    }

    #[test]
    fn pa7100_matches_table_2_option_counts() {
        let counts = option_counts(Machine::Pa7100);
        assert_eq!(counts["branch"], 1);
        assert_eq!(counts["int_op"], 2);
        assert_eq!(counts["fp_op"], 2);
        // The memory pipeline ships with the stale duplicate (3 options);
        // dominated-option elimination reduces it to 2 (Table 8).
        assert_eq!(counts["load"], 3);
        assert_eq!(counts["store"], 3);
    }

    #[test]
    fn pentium_matches_table_3_option_counts() {
        let counts = option_counts(Machine::Pentium);
        for one_option in ["u_only_alu", "np_alu", "complex_op", "cmp_branch"] {
            assert_eq!(counts[one_option], 1, "{one_option}");
        }
        for two_options in ["pair_alu", "pair_mov", "pair_load", "pair_store"] {
            assert_eq!(counts[two_options], 2, "{two_options}");
        }
    }

    #[test]
    fn pentium_uses_no_and_or_trees() {
        let spec = Machine::Pentium.spec();
        assert_eq!(spec.num_and_or_trees(), 0);
    }

    #[test]
    fn k5_matches_table_4_option_counts() {
        let counts = option_counts(Machine::K5);
        assert_eq!(counts["rop1_fp"], 16);
        assert_eq!(counts["rop2_fp_br"], 24);
        assert_eq!(counts["rop1_alu"], 32);
        assert_eq!(counts["rop1_load"], 32);
        assert_eq!(counts["rop1_store"], 32);
        assert_eq!(counts["cmp_br2"], 48);
        assert_eq!(counts["cmp_br3"], 64);
        assert_eq!(counts["rop2_op"], 96);
        assert_eq!(counts["cmp_br2_slow"], 128);
        assert_eq!(counts["rop2_sub"], 192);
        assert_eq!(counts["rop2_slow"], 256);
        assert_eq!(counts["cmp_br3_slow"], 384);
        assert_eq!(counts["rop3_slow"], 768);
    }

    #[test]
    fn branches_are_flagged_on_every_machine() {
        for machine in Machine::all() {
            let spec = machine.spec();
            let has_branch = spec.class_ids().any(|id| spec.class(id).flags.branch);
            assert!(has_branch, "{} lacks a branch class", machine.name());
        }
    }

    #[test]
    fn descriptions_contain_deliberate_redundancy_except_clean_ones() {
        // The paper's Section-5 premise: evolving descriptions accumulate
        // redundant/unused information.  Verify the shipped descriptions
        // give the redundancy pass something to do.
        for machine in Machine::all() {
            let mut spec = machine.spec();
            let report = mdes_opt::eliminate_redundancy(&mut spec);
            assert!(
                report.total() > 0,
                "{} shipped with no redundancy",
                machine.name()
            );
        }
    }

    #[test]
    fn and_or_sub_trees_are_resource_disjoint() {
        // The greedy AND/OR checking algorithm is equivalent to the
        // expanded OR-tree exactly when sub-OR-trees touch disjoint
        // (resource, time) cells; assert the property the machine models
        // rely on.
        for machine in Machine::all() {
            let spec = machine.spec();
            for andor in spec.and_or_tree_ids() {
                let tree = spec.and_or_tree(andor);
                let mut seen: Vec<(usize, i32)> = Vec::new();
                for &or in &tree.or_trees {
                    let mut mine: Vec<(usize, i32)> = Vec::new();
                    for &opt in &spec.or_tree(or).options {
                        for usage in &spec.option(opt).usages {
                            mine.push((usage.resource.index(), usage.time));
                        }
                    }
                    mine.sort_unstable();
                    mine.dedup();
                    for cell in &mine {
                        assert!(
                            !seen.contains(cell),
                            "{}: AND/OR tree shares cell {:?} across sub-trees",
                            machine.name(),
                            cell
                        );
                    }
                    seen.extend(mine);
                }
            }
        }
    }

    #[test]
    fn long_occupancy_classes_exist_with_correct_counts() {
        let sparc = option_counts(Machine::SuperSparc);
        assert_eq!(sparc["fp_div"], 3); // still in Table 1's 3-option group
        let pa = option_counts(Machine::Pa7100);
        assert_eq!(pa["fp_div"], 2); // Table 2's 2-option group
        let pentium = option_counts(Machine::Pentium);
        for one in ["fp_op", "mul_op", "div_op", "string_op"] {
            assert_eq!(pentium[one], 1, "{one}"); // Table 3's 1-option group
        }
        // Divide holds both pipes for 17 cycles: a big reservation table.
        let spec = Machine::Pentium.spec();
        let div = spec.class_by_name("div_op").unwrap();
        let mdes_core::Constraint::Or(tree) = spec.class(div).constraint else {
            panic!("div_op is an OR class");
        };
        let opt = spec.or_tree(tree).options[0];
        assert!(spec.option(opt).usages.len() > 30);
    }

    #[test]
    fn opcode_vocabularies_cover_every_class() {
        for machine in Machine::all() {
            let spec = machine.spec();
            assert!(
                spec.opcodes().len() >= 20,
                "{}: only {} opcodes",
                machine.name(),
                spec.opcodes().len()
            );
            for id in spec.class_ids() {
                let class = spec.class(id);
                // Cascaded classes are scheduler-internal (Section 2) and
                // carry no opcodes; everything else must.
                if class.name.starts_with("cascade") {
                    continue;
                }
                assert!(
                    !spec.opcodes_of_class(id).is_empty(),
                    "{}: class `{}` has no opcodes",
                    machine.name(),
                    class.name
                );
            }
        }
    }

    #[test]
    fn opcode_lookup_resolves_known_mnemonics() {
        let spec = Machine::SuperSparc.spec();
        let load = spec.class_by_name("load").unwrap();
        assert_eq!(spec.opcode_class("LDUB"), Some(load));
        assert_eq!(spec.opcode_class("NOPE"), None);
    }

    #[test]
    fn approximate_superspark_is_class_compatible_with_the_accurate_one() {
        let accurate = Machine::SuperSparc.spec();
        let approx = approximate_superspark();
        assert_eq!(accurate.num_classes(), approx.num_classes());
        for id in accurate.class_ids() {
            let a = accurate.class(id);
            let b = approx.class(id);
            assert_eq!(a.name, b.name, "class order must match");
            assert_eq!(a.latency, b.latency, "{}: latency differs", a.name);
            assert_eq!(a.flags, b.flags, "{}: flags differ", a.name);
        }
        assert_eq!(accurate.opcodes(), approx.opcodes());
        // And it really is weaker: fewer constraints to model.
        let accurate_size = accurate.num_options();
        assert!(approx.num_options() < accurate_size);
    }

    #[test]
    fn forwarding_exceptions_shorten_store_data_paths() {
        use mdes_core::{CompiledMdes, UsageEncoding};
        let spec = Machine::SuperSparc.spec();
        assert!(!spec.bypasses().is_empty());
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let fp = compiled.class_by_name("fp_op").unwrap();
        let store = compiled.class_by_name("store").unwrap();
        let alu = compiled.class_by_name("ialu_1src").unwrap();
        assert_eq!(compiled.flow_latency(fp, store), 2); // bypassed (dest 3)
        assert_eq!(compiled.flow_latency(fp, alu), 3); // default
    }

    #[test]
    fn loads_take_the_lowest_numbered_decoder_and_write_port_first() {
        // Figure 1: "the first available (lowest numbered) decoder and
        // register write port will be used by the integer load."
        use mdes_core::{CheckStats, Checker, CompiledMdes, RuMap, UsageEncoding};
        let spec = Machine::SuperSparc.spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let checker = Checker::new(&compiled);
        let load = compiled.class_by_name("load").unwrap();
        let dec = |i: usize| spec.resources().lookup(&format!("Decoder[{i}]")).unwrap();
        let wrpt = |i: usize| spec.resources().lookup(&format!("WrPt[{i}]")).unwrap();

        let mut ru = RuMap::new();
        let mut stats = CheckStats::new();
        checker.try_reserve(&mut ru, load, 0, &mut stats).unwrap();
        assert!(!ru.is_free(-1, dec(0).bit()), "first load takes Decoder[0]");
        assert!(!ru.is_free(1, wrpt(0).bit()), "first load takes WrPt[0]");
        assert!(ru.is_free(-1, dec(1).bit()));

        // A second load in the same cycle fails on the single memory
        // unit — the Section-2 constraint that makes loads serialize.
        assert!(checker.try_reserve(&mut ru, load, 0, &mut stats).is_none());
        // One cycle later it succeeds and again takes the lowest free
        // decoder and write port.
        checker.try_reserve(&mut ru, load, 1, &mut stats).unwrap();
        assert!(!ru.is_free(0, dec(0).bit()));
        assert!(!ru.is_free(2, wrpt(0).bit()));
    }

    #[test]
    fn pentium_pro_demonstrator_compiles_with_expected_counts() {
        let spec = pentium_pro();
        assert!(spec.validate().is_ok());
        let count = |name: &str| {
            let id = spec.class_by_name(name).unwrap();
            spec.class_option_count(id)
        };
        assert_eq!(count("simple_alu"), 18);
        assert_eq!(count("complex_alu"), 6);
        assert_eq!(count("load"), 9);
        assert_eq!(count("store"), 9);
        assert_eq!(count("load_alu"), 18);
        assert_eq!(count("fp_op"), 3);
        assert_eq!(count("cmp_branch"), 18);
        assert!(!spec.opcodes().is_empty());
    }

    #[test]
    fn machine_names_and_flexibility() {
        assert_eq!(Machine::SuperSparc.name(), "SuperSPARC");
        assert!(Machine::K5.is_flexible());
        assert!(!Machine::Pentium.is_flexible());
        assert_eq!(Machine::all().len(), 4);
    }

    #[test]
    fn from_name_resolves_every_name_in_any_case() {
        for machine in Machine::all() {
            let name = machine.name();
            assert_eq!(Machine::from_name(name), Ok(machine));
            assert_eq!(Machine::from_name(&name.to_lowercase()), Ok(machine));
            assert_eq!(Machine::from_name(&name.to_uppercase()), Ok(machine));
        }
        for bad in ["vax", ""] {
            assert_eq!(
                Machine::from_name(bad),
                Err(format!(
                    "unknown machine `{bad}` (PA7100, Pentium, SuperSPARC, K5)"
                ))
            );
        }
    }

    #[test]
    fn bundled_lists_six_distinct_names_in_table_order() {
        let names: Vec<String> = bundled().into_iter().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "pa7100",
                "pentium",
                "supersparc",
                "k5",
                "pentiumpro",
                "superspark_approx"
            ]
        );
    }
}

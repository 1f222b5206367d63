//! Binary serialization of the compiled low-level representation.
//!
//! The IMPACT infrastructure the paper builds on stores the customized
//! low-level MDES (`Lmdes`, reference \[4\]) in a file that the compiler
//! loads at start-up; the external representation fully specifies the
//! shared structure "in order to minimize the time required to load the
//! MDES into memory" (Section 4).  This module provides the analogous
//! artifact: a compact little-endian format that round-trips a
//! [`CompiledMdes`] exactly, preserving all sharing.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "LMDES\x02"            6 bytes
//! encoding                     u8 (0 = scalar, 1 = bit-vector)
//! num_resources                u32
//! min_time, max_time           i32, i32
//! num_options                  u32
//!   per option: num_checks u32, then (time i32, mask u64) pairs
//! num_or_trees                 u32
//!   per tree: num_options u32, then option indices u32
//! num_classes                  u32
//!   per class: name (len u32 + UTF-8), kind u8, and_or_index u32,
//!              latency (dest i32, src i32, mem i32), flags u8,
//!              num_or_trees u32, then tree indices u32
//! num_bypasses                 u32
//!   per bypass: producer u32, consumer u32, latency i32
//! ```
//!
//! One walker reads this layout.  [`scan`] runs it without building
//! anything and [`read`] (or [`LmdesScan::materialize`]) runs it while
//! building the pools, so the field order, byte bounds and count bound
//! are written once.  The walk stops at the first defect with an
//! [`LmdesError`] whose [`code`](LmdesError::code) names a stable fault
//! class, the same `MD10x` vocabulary the static analyzer registers:
//!
//! | code  | variant           | defect                                            | typical cause (`ImageFault`) |
//! |-------|-------------------|---------------------------------------------------|------------------------------|
//! | MD101 | `BadMagic`        | magic/version prefix wrong                        | `smash-magic`                |
//! | MD102 | `TruncatedHeader` | image shorter than the fixed 19-byte header       | `truncate-header`            |
//! | MD103 | `Truncated`       | structure runs past the end of the image          | `truncate-body`              |
//! | MD104 | `HugeCount`       | element count above 2^24 in a length field        | `huge-count`                 |
//! | MD105 | `TrailingBytes`   | bytes remain after a complete structure           | `garbage-tail`               |
//! | MD106 | `InvalidField`    | field value outside its domain, or dangling index | bit rot, tampering           |

use std::fmt;

use crate::compile::{
    CompiledCheck, CompiledClass, CompiledMdes, ConstraintKind, Pools, UsageEncoding,
};
use crate::resource::MAX_RESOURCES;
use crate::spec::{ClassId, Latency, OpFlags};

/// Magic prefix identifying an LMDES file (includes a format version).
pub const MAGIC: &[u8; 6] = b"LMDES\x02";

/// Fixed bytes before the first section: magic (6) + encoding (1) +
/// resource count (4) + min/max check time (8).
const HEADER_LEN: usize = 19;

/// Element counts above this are tampered length fields (MD104) rather
/// than truncation: no realistic description holds sixteen million
/// items, but a bit-flipped or spliced count easily does.
const MAX_COUNT: u32 = 1 << 24;

/// Why an LMDES image does not load: one variant per fault class.
///
/// Each variant carries the field and byte counts its message names and
/// nothing on the heap, so rejecting an image allocates nothing either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LmdesError {
    /// MD101: the magic/version prefix does not match (wrong file or
    /// format version).
    BadMagic,
    /// MD102: the prefix matches but the image ends inside the fixed
    /// header (an interrupted write).
    TruncatedHeader {
        /// Length of the image in bytes.
        len: usize,
    },
    /// MD103: the structure runs past the end of the image.
    Truncated {
        /// The field being read.
        field: &'static str,
        /// Byte offset of the field.
        offset: usize,
        /// For a length field, the element count it claims.
        count: Option<u32>,
        /// Bytes the field (or the elements it counts) needs.
        need: usize,
        /// Bytes left in the image.
        have: usize,
    },
    /// MD104: a length field claims more than 2^24 elements.
    HugeCount {
        /// The length field.
        field: &'static str,
        /// Byte offset of the field.
        offset: usize,
        /// The element count it claims.
        count: u32,
    },
    /// MD105: bytes remain after a complete structure.
    TrailingBytes {
        /// Length of the complete structure.
        structure: usize,
        /// Bytes after it.
        trailing: usize,
    },
    /// MD106: a field holds a value outside its domain.
    InvalidField(FieldFault),
}

/// The value an MD106 [`LmdesError::InvalidField`] rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldFault {
    /// An encoding byte other than 0 (scalar) or 1 (bit-vector).
    Encoding(u8),
    /// A resource count above [`MAX_RESOURCES`].
    ResourceCount(u32),
    /// An or-tree's option index past the end of the option pool.
    OptionIndex {
        /// The stored index.
        index: u32,
        /// Options in the pool.
        pool: usize,
    },
    /// A class name that is not UTF-8.
    ClassName,
    /// A constraint-kind byte other than 0 (OR) or 1 (AND/OR).
    ConstraintKind(u8),
    /// A flags byte with bits set outside the four defined flags.
    Flags(u8),
    /// A class's or-tree index past the end of the or-tree pool.
    TreeIndex {
        /// The stored index.
        index: u32,
        /// Or-trees in the pool.
        pool: usize,
    },
    /// An OR-constraint class that does not list exactly one tree.
    OrTreeCount(usize),
    /// A bypass endpoint past the end of the class pool.
    BypassClass {
        /// `bypass producer` or `bypass consumer`.
        field: &'static str,
        /// The stored index.
        index: u32,
        /// Classes in the pool.
        pool: usize,
    },
}

impl LmdesError {
    /// The stable fault-class code, `MD101`–`MD106`.
    pub fn code(&self) -> &'static str {
        match self {
            LmdesError::BadMagic => "MD101",
            LmdesError::TruncatedHeader { .. } => "MD102",
            LmdesError::Truncated { .. } => "MD103",
            LmdesError::HugeCount { .. } => "MD104",
            LmdesError::TrailingBytes { .. } => "MD105",
            LmdesError::InvalidField(_) => "MD106",
        }
    }
}

impl From<FieldFault> for LmdesError {
    fn from(fault: FieldFault) -> LmdesError {
        LmdesError::InvalidField(fault)
    }
}

impl fmt::Display for LmdesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LmdesError::BadMagic => f.write_str(
                "magic/version prefix does not match LMDES format 2 (wrong file or format version)",
            ),
            LmdesError::TruncatedHeader { len } => write!(
                f,
                "image is {len} byte(s) but the fixed LMDES header is {HEADER_LEN} (interrupted write)"
            ),
            LmdesError::Truncated {
                field,
                offset,
                count: None,
                need,
                have,
            } => write!(
                f,
                "image ends inside {field}: need {need} byte(s) at offset {offset}, have {have}"
            ),
            LmdesError::Truncated {
                field,
                offset,
                count: Some(count),
                need,
                have,
            } => write!(
                f,
                "{field} at offset {offset} claims {count} element(s) needing ≥{need} byte(s), \
                 but only {have} remain (truncated image)"
            ),
            LmdesError::HugeCount {
                field,
                offset,
                count,
            } => write!(
                f,
                "{field} at offset {offset} claims {count} element(s) — a tampered or \
                 bit-rotted length field"
            ),
            LmdesError::TrailingBytes {
                structure,
                trailing,
            } => write!(
                f,
                "{trailing} byte(s) of trailing garbage after a complete {structure}-byte structure"
            ),
            LmdesError::InvalidField(fault) => fault.fmt(f),
        }
    }
}

impl fmt::Display for FieldFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FieldFault::Encoding(byte) => write!(
                f,
                "encoding byte {byte} is outside its domain (0 = scalar, 1 = bit-vector)"
            ),
            FieldFault::ResourceCount(count) => write!(
                f,
                "resource count {count} exceeds the pool limit {MAX_RESOURCES}"
            ),
            FieldFault::OptionIndex { index, pool } => write!(
                f,
                "or-tree references option #{index} of a {pool}-option pool"
            ),
            FieldFault::ClassName => f.write_str("class name is not UTF-8"),
            FieldFault::ConstraintKind(byte) => write!(
                f,
                "constraint kind {byte} is outside its domain (0 = OR, 1 = AND/OR)"
            ),
            FieldFault::Flags(byte) => {
                write!(f, "flags byte {byte:#04x} sets bits outside its domain")
            }
            FieldFault::TreeIndex { index, pool } => {
                write!(f, "class references or-tree #{index} of a {pool}-tree pool")
            }
            FieldFault::OrTreeCount(count) => write!(
                f,
                "OR-constraint class lists {count} trees (must be exactly 1)"
            ),
            FieldFault::BypassClass { field, index, pool } => write!(
                f,
                "{field} references class #{index} of a {pool}-class pool"
            ),
        }
    }
}

impl std::error::Error for LmdesError {}

/// Serializes a compiled MDES to its binary image.
pub fn write(mdes: &CompiledMdes) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(MAGIC);
    out.push(match mdes.encoding() {
        UsageEncoding::Scalar => 0,
        UsageEncoding::BitVector => 1,
    });
    put_u32(&mut out, mdes.num_resources() as u32);
    put_i32(&mut out, mdes.min_check_time());
    put_i32(&mut out, mdes.max_check_time());

    put_u32(&mut out, mdes.num_options() as u32);
    for idx in 0..mdes.num_options() {
        let checks = mdes.option_checks(idx);
        put_u32(&mut out, checks.len() as u32);
        for check in checks {
            put_i32(&mut out, check.time);
            out.extend_from_slice(&check.mask.to_le_bytes());
        }
    }

    put_u32(&mut out, mdes.num_or_trees() as u32);
    for idx in 0..mdes.num_or_trees() {
        put_list(&mut out, mdes.tree_options(idx));
    }

    put_u32(&mut out, mdes.classes().len() as u32);
    for (idx, class) in mdes.classes().iter().enumerate() {
        put_u32(&mut out, class.name.len() as u32);
        out.extend_from_slice(class.name.as_bytes());
        out.push(match class.kind {
            ConstraintKind::Or => 0,
            ConstraintKind::AndOr => 1,
        });
        put_u32(&mut out, class.and_or_index);
        put_i32(&mut out, class.latency.dest);
        put_i32(&mut out, class.latency.src);
        put_i32(&mut out, class.latency.mem);
        out.push(flags_byte(class.flags));
        put_list(&mut out, mdes.class_trees(ClassId::from_index(idx)));
    }
    put_u32(&mut out, mdes.bypasses().len() as u32);
    for &(p, c, latency) in mdes.bypasses() {
        put_u32(&mut out, p);
        put_u32(&mut out, c);
        put_i32(&mut out, latency);
    }
    out
}

/// A validated, unmaterialized view of an LMDES image.
///
/// [`scan`] walks the whole image once — checking the magic, every
/// length field, every stored index, and every enumerated byte — while
/// allocating nothing.  A successful scan is therefore a proof of
/// structural validity: reload vetting and content-hash admission can
/// accept or reject an image on the scan alone, and only pay for
/// [`LmdesScan::materialize`] (the allocating decode) when the image is
/// actually promoted to serving.
#[derive(Debug, Clone, Copy)]
pub struct LmdesScan<'a> {
    bytes: &'a [u8],
    encoding: UsageEncoding,
    num_resources: usize,
    min_time: i32,
    max_time: i32,
    num_options: usize,
    num_or_trees: usize,
    num_classes: usize,
    num_bypasses: usize,
}

impl<'a> LmdesScan<'a> {
    /// The usage encoding the image was compiled with.
    pub fn encoding(&self) -> UsageEncoding {
        self.encoding
    }

    /// Number of resources in the scanned image.
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }

    /// Number of usage options in the scanned image.
    pub fn num_options(&self) -> usize {
        self.num_options
    }

    /// Number of OR-trees in the scanned image.
    pub fn num_or_trees(&self) -> usize {
        self.num_or_trees
    }

    /// Number of operation classes in the scanned image.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of bypass entries in the scanned image.
    pub fn num_bypasses(&self) -> usize {
        self.num_bypasses
    }

    /// Materializes the scanned image into a [`CompiledMdes`].
    ///
    /// This is the allocating half of the decode: the same walk as
    /// [`scan`], building the pools as it goes.
    ///
    /// # Errors
    ///
    /// Returns an [`LmdesError`] if the underlying bytes do not decode;
    /// unreachable for a scan obtained from [`scan`] on the same bytes.
    pub fn materialize(&self) -> Result<CompiledMdes, LmdesError> {
        read(self.bytes)
    }
}

/// Validates an LMDES image in a single allocation-free pass.
///
/// This is the walk [`read`] runs, minus the building, so
/// `scan(bytes)` fails exactly when `read(bytes)` does, with the same
/// error.  The returned [`LmdesScan`] materializes later on demand.
///
/// # Errors
///
/// Returns an [`LmdesError`] naming the first defect and its class.
pub fn scan(bytes: &[u8]) -> Result<LmdesScan<'_>, LmdesError> {
    walk::<false>(bytes).map(|(scan, _)| scan)
}

/// Decodes a binary image back into a compiled MDES.
///
/// Equivalent to [`scan`] followed by [`LmdesScan::materialize`], in
/// one walk; use the two halves separately when validity is needed
/// before (or without) the allocating decode.
///
/// # Errors
///
/// Returns an [`LmdesError`] on malformed input; a successful decode
/// always yields a structurally valid MDES (all indices in range).
pub fn read(bytes: &[u8]) -> Result<CompiledMdes, LmdesError> {
    let (scan, pools) = walk::<true>(bytes)?;
    Ok(CompiledMdes::from_pools(
        scan.encoding,
        scan.num_resources,
        pools,
        scan.min_time,
        scan.max_time,
    ))
}

/// The one reader of the layout ([`write`] is its mirror).
///
/// Checks every field in layout order and stops at the first defect.
/// With `BUILD` it also decodes each item into the pools; without, it
/// touches no pool, and an untouched `Vec` owns no allocation, which
/// keeps [`scan`] allocation-free.
fn walk<const BUILD: bool>(bytes: &[u8]) -> Result<(LmdesScan<'_>, Pools), LmdesError> {
    // A short image whose bytes still agree with the magic prefix was
    // cut mid-header; any disagreeing byte means this was never (this
    // version of) an LMDES image.
    let prefix = bytes.len().min(MAGIC.len());
    if bytes[..prefix] != MAGIC[..prefix] {
        return Err(LmdesError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(LmdesError::TruncatedHeader { len: bytes.len() });
    }
    let mut r = Reader {
        bytes,
        pos: MAGIC.len(),
    };
    let mut pools = Pools::default();

    let encoding = match r.u8("encoding")? {
        0 => UsageEncoding::Scalar,
        1 => UsageEncoding::BitVector,
        byte => return Err(FieldFault::Encoding(byte).into()),
    };
    let num_resources = r.u32("num_resources")?;
    if num_resources as usize > MAX_RESOURCES {
        return Err(FieldFault::ResourceCount(num_resources).into());
    }
    let min_time = r.i32("min_check_time")?;
    let max_time = r.i32("max_check_time")?;

    let num_options = r.count("option count", 4)?;
    if BUILD {
        pools.options.open(num_options);
    }
    for _ in 0..num_options {
        let num_checks = r.count("check count", 12)?;
        let checks = r.take(num_checks * 12, "reservation checks")?;
        if BUILD {
            pools
                .options
                .extend(checks.chunks_exact(12).map(|check| CompiledCheck {
                    time: i32::from_le_bytes(le(&check[..4])),
                    mask: u64::from_le_bytes(le(&check[4..])),
                }));
            pools.options.close();
        }
    }

    let num_or_trees = r.count("or-tree count", 4)?;
    if BUILD {
        pools.trees.open(num_or_trees);
    }
    for _ in 0..num_or_trees {
        let count = r.count("or-tree option count", 4)?;
        for _ in 0..count {
            let index = r.u32("option index")?;
            if index as usize >= num_options {
                let pool = num_options;
                return Err(FieldFault::OptionIndex { index, pool }.into());
            }
            if BUILD {
                pools.trees.push(index);
            }
        }
        if BUILD {
            pools.trees.close();
        }
    }

    let num_classes = r.count("class count", 26)?;
    if BUILD {
        pools.classes.reserve_exact(num_classes);
        pools.class_trees.open(num_classes);
    }
    for _ in 0..num_classes {
        let name_len = r.count("class name length", 1)?;
        let name = std::str::from_utf8(r.take(name_len, "class name")?)
            .map_err(|_| FieldFault::ClassName)?;
        let kind = match r.u8("constraint kind")? {
            0 => ConstraintKind::Or,
            1 => ConstraintKind::AndOr,
            byte => return Err(FieldFault::ConstraintKind(byte).into()),
        };
        let and_or_index = r.u32("and_or_index")?;
        let dest = r.i32("dest latency")?;
        let src = r.i32("src latency")?;
        let mem = r.i32("mem latency")?;
        let flags = flags_from_byte(r.u8("flags")?)?;
        let count = r.count("class tree count", 4)?;
        for _ in 0..count {
            let index = r.u32("tree index")?;
            if index as usize >= num_or_trees {
                let pool = num_or_trees;
                return Err(FieldFault::TreeIndex { index, pool }.into());
            }
            if BUILD {
                pools.class_trees.push(index);
            }
        }
        if kind == ConstraintKind::Or && count != 1 {
            return Err(FieldFault::OrTreeCount(count).into());
        }
        if BUILD {
            pools.class_trees.close();
            pools.classes.push(CompiledClass {
                name: name.to_string(),
                kind,
                and_or_index,
                latency: Latency::with_mem(dest, mem).with_src(src),
                flags,
            });
        }
    }

    let num_bypasses = r.count("bypass count", 12)?;
    if BUILD {
        pools.bypasses.reserve_exact(num_bypasses);
    }
    for _ in 0..num_bypasses {
        let mut ends = [0; 2];
        for (end, field) in ends.iter_mut().zip(["bypass producer", "bypass consumer"]) {
            *end = r.u32(field)?;
            if *end as usize >= num_classes {
                let (index, pool) = (*end, num_classes);
                return Err(FieldFault::BypassClass { field, index, pool }.into());
            }
        }
        let latency = r.i32("bypass latency")?;
        if BUILD {
            pools.bypasses.push((ends[0], ends[1], latency));
        }
    }

    // A well-formed image is consumed exactly; bytes past the structure
    // mean the payload was corrupted (or is not the image it claims to
    // be), so reject rather than silently ignore them.
    if r.pos != bytes.len() {
        return Err(LmdesError::TrailingBytes {
            structure: r.pos,
            trailing: bytes.len() - r.pos,
        });
    }

    let scan = LmdesScan {
        bytes,
        encoding,
        num_resources: num_resources as usize,
        min_time,
        max_time,
        num_options,
        num_or_trees,
        num_classes,
        num_bypasses,
    };
    Ok((scan, pools))
}

fn flags_byte(flags: OpFlags) -> u8 {
    (flags.load as u8)
        | (flags.store as u8) << 1
        | (flags.branch as u8) << 2
        | (flags.serial as u8) << 3
}

fn flags_from_byte(byte: u8) -> Result<OpFlags, FieldFault> {
    if byte & !0b1111 != 0 {
        return Err(FieldFault::Flags(byte));
    }
    Ok(OpFlags {
        load: byte & 1 != 0,
        store: byte & 2 != 0,
        branch: byte & 4 != 0,
        serial: byte & 8 != 0,
    })
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, value: i32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// A length-prefixed list of indices: the count, then each index.
fn put_list(out: &mut Vec<u8>, indices: &[u32]) {
    put_u32(out, indices.len() as u32);
    for &index in indices {
        put_u32(out, index);
    }
}

/// The `N` bytes of a slice [`Reader::take`] cut to length `N`.
fn le<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(bytes);
    out
}

/// The walk's cursor.  Every read names its field, so a short image
/// reports what it was cut inside of.  The reads are forced inline: as
/// calls, each one returns its `Result`, wide with the error's field and
/// byte counts, through memory, and that made [`scan`] about twice as
/// slow.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline(always)]
    fn take(&mut self, need: usize, field: &'static str) -> Result<&'a [u8], LmdesError> {
        let have = self.remaining();
        if need > have {
            return Err(LmdesError::Truncated {
                field,
                offset: self.pos,
                count: None,
                need,
                have,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + need];
        self.pos += need;
        Ok(slice)
    }

    #[inline(always)]
    fn u8(&mut self, field: &'static str) -> Result<u8, LmdesError> {
        Ok(self.take(1, field)?[0])
    }

    #[inline(always)]
    fn u32(&mut self, field: &'static str) -> Result<u32, LmdesError> {
        Ok(u32::from_le_bytes(le(self.take(4, field)?)))
    }

    #[inline(always)]
    fn i32(&mut self, field: &'static str) -> Result<i32, LmdesError> {
        Ok(i32::from_le_bytes(le(self.take(4, field)?)))
    }

    /// A u32 element count, where each element occupies at least
    /// `min_element_bytes` in the image.  A count above [`MAX_COUNT`] is
    /// a tampered field (MD104, checked first so `u32::MAX` is not
    /// mistaken for truncation); any other count must fit in the bytes
    /// remaining (MD103).  Either way a bit-flipped length field can
    /// never drive an allocation beyond what the image could encode.
    #[inline(always)]
    fn count(
        &mut self,
        field: &'static str,
        min_element_bytes: usize,
    ) -> Result<usize, LmdesError> {
        let offset = self.pos;
        let count = self.u32(field)?;
        if count > MAX_COUNT {
            return Err(LmdesError::HugeCount {
                field,
                offset,
                count,
            });
        }
        let need = count as usize * min_element_bytes;
        let have = self.remaining();
        if need > have {
            return Err(LmdesError::Truncated {
                field,
                offset,
                count: Some(count),
                need,
                have,
            });
        }
        Ok(count as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Constraint, MdesSpec, OrTree, TableOption};
    use crate::usage::ResourceUsage;

    fn sample() -> CompiledMdes {
        let mut spec = MdesSpec::new();
        let a = spec.resources_mut().add("a").unwrap();
        let b = spec.resources_mut().add("b").unwrap();
        let o1 = spec.add_option(TableOption::new(vec![
            ResourceUsage::new(a, -1),
            ResourceUsage::new(b, 0),
        ]));
        let o2 = spec.add_option(TableOption::new(vec![ResourceUsage::new(b, 2)]));
        let tree = spec.add_or_tree(OrTree::new(vec![o1, o2]));
        spec.add_class(
            "load",
            Constraint::Or(tree),
            Latency::with_mem(2, 3),
            OpFlags::load(),
        )
        .unwrap();
        CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let mdes = sample();
        let bytes = write(&mdes);
        let decoded = read(&bytes).unwrap();
        assert_eq!(decoded, mdes);
    }

    #[test]
    fn machine_descriptions_round_trip() {
        // Compile each bundled machine and round-trip the image.
        for source in ["resource M; or_tree T = first_of({ M @ 0 }); class c { constraint = T; }"] {
            let spec = mdes_spec_from(source);
            for encoding in [UsageEncoding::Scalar, UsageEncoding::BitVector] {
                let mdes = CompiledMdes::compile(&spec, encoding).unwrap();
                assert_eq!(read(&write(&mdes)).unwrap(), mdes);
            }
        }
    }

    fn mdes_spec_from(src: &str) -> MdesSpec {
        // Minimal inline builder to avoid a dev-dependency cycle with
        // mdes-lang; parses nothing, builds the one shape used above.
        let _ = src;
        let mut spec = MdesSpec::new();
        let m = spec.resources_mut().add("M").unwrap();
        let opt = spec.add_option(TableOption::new(vec![ResourceUsage::new(m, 0)]));
        let tree = spec.add_or_tree(OrTree::new(vec![opt]));
        spec.add_class("c", Constraint::Or(tree), Latency::new(1), OpFlags::none())
            .unwrap();
        spec
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = write(&sample());
        bytes[0] = b'X';
        assert_eq!(read(&bytes), Err(LmdesError::BadMagic));
        // Wrong version byte.
        let mut bytes = write(&sample());
        bytes[5] = 0x07;
        assert_eq!(read(&bytes), Err(LmdesError::BadMagic));
    }

    #[test]
    fn truncated_images_are_rejected_at_every_length() {
        // A cut inside the fixed header is an interrupted write (MD102);
        // anywhere later the structure runs off the end (MD103).  The
        // validating scan classifies every cut exactly as the decode.
        let bytes = write(&sample());
        for len in 0..bytes.len() {
            let want = if len < HEADER_LEN { "MD102" } else { "MD103" };
            let err = read(&bytes[..len]).unwrap_err();
            assert_eq!(err.code(), want, "prefix {len}: {err}");
            assert_eq!(scan(&bytes[..len]).map(|_| ()), Err(err), "prefix {len}");
        }
        // A short prefix is judged by the bytes it has: agreeing ones
        // were cut mid-header, a disagreeing one is the wrong file.
        assert_eq!(read(b"LMD").unwrap_err().code(), "MD102");
        assert_eq!(read(b"XYZ").unwrap_err().code(), "MD101");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = write(&sample());
        bytes.push(0);
        assert_eq!(
            read(&bytes),
            Err(LmdesError::TrailingBytes {
                structure: bytes.len() - 1,
                trailing: 1,
            })
        );
        let mut bytes = write(&sample());
        bytes.extend_from_slice(b"garbage after a valid image");
        assert!(read(&bytes).is_err());
    }

    #[test]
    fn dangling_option_index_is_rejected() {
        let mdes = sample();
        let mut bytes = write(&mdes);
        // The OR-tree section follows the options; find the first tree's
        // first option index and corrupt it.  Rather than hand-computing
        // offsets, flip every u32-aligned word and require that no
        // mutation produces a *structurally invalid* MDES.
        let mut found_rejection = false;
        for pos in (MAGIC.len()..bytes.len().saturating_sub(4)).step_by(4) {
            let original = bytes[pos];
            bytes[pos] = 0xEE;
            match read(&bytes) {
                Err(_) => found_rejection = true,
                Ok(decoded) => {
                    // Accepted mutations must still be self-consistent.
                    for tree in 0..decoded.num_or_trees() {
                        for &opt in decoded.tree_options(tree) {
                            assert!((opt as usize) < decoded.num_options());
                        }
                    }
                }
            }
            bytes[pos] = original;
        }
        assert!(found_rejection, "no corruption was ever rejected");
    }

    /// Overwrites the 4 bytes at `pos` with `value` little-endian.
    fn splice_u32(bytes: &mut [u8], pos: usize, value: u32) {
        bytes[pos..pos + 4].copy_from_slice(&value.to_le_bytes());
    }

    #[test]
    fn huge_length_fields_are_rejected_without_allocating() {
        // The option-count field sits right after the 19-byte header.  A
        // count above 2^24 is a tampered field (MD104); one at 2^24 fails
        // the bytes-remaining bound (MD103).  Either way the count is
        // rejected before it can reach Vec::with_capacity.
        let bytes = write(&sample());
        for (huge, code) in [
            (u32::MAX, "MD104"),
            (u32::MAX / 2, "MD104"),
            (1 << 24, "MD103"),
        ] {
            let mut corrupt = bytes.clone();
            splice_u32(&mut corrupt, HEADER_LEN, huge);
            let err = read(&corrupt).unwrap_err();
            assert_eq!(err.code(), code, "count {huge}: {err}");
            assert_eq!(scan(&corrupt).map(|_| ()), Err(err), "count {huge}");
        }
    }

    #[test]
    fn messages_name_the_field_and_byte_counts() {
        let bytes = write(&sample());
        let message = |image: &[u8]| read(image).unwrap_err().to_string();
        assert_eq!(
            message(b"XYZ"),
            "magic/version prefix does not match LMDES format 2 (wrong file or format version)"
        );
        assert_eq!(
            message(&bytes[..10]),
            "image is 10 byte(s) but the fixed LMDES header is 19 (interrupted write)"
        );
        assert_eq!(
            message(&bytes[..21]),
            "image ends inside option count: need 4 byte(s) at offset 19, have 2"
        );
        let mut corrupt = bytes.clone();
        splice_u32(&mut corrupt, HEADER_LEN, u32::MAX);
        assert_eq!(
            message(&corrupt),
            "option count at offset 19 claims 4294967295 element(s) — a tampered or \
             bit-rotted length field"
        );
        splice_u32(&mut corrupt, HEADER_LEN, 1 << 24);
        assert_eq!(
            message(&corrupt),
            format!(
                "option count at offset 19 claims 16777216 element(s) needing ≥67108864 \
                 byte(s), but only {} remain (truncated image)",
                bytes.len() - 23
            )
        );
        let mut tail = bytes.clone();
        tail.extend_from_slice(b"junk");
        assert_eq!(
            message(&tail),
            format!(
                "4 byte(s) of trailing garbage after a complete {}-byte structure",
                bytes.len()
            )
        );
        let mut encoding = bytes.clone();
        encoding[MAGIC.len()] = 7;
        assert_eq!(
            message(&encoding),
            "encoding byte 7 is outside its domain (0 = scalar, 1 = bit-vector)"
        );
    }

    #[test]
    fn every_u32_field_splice_is_rejected_or_structurally_valid() {
        // Sweep a large value over every byte offset (not just aligned
        // ones): whatever field it lands in — a section length, an index,
        // a latency — the decoder must either reject the image or produce
        // a self-consistent MDES.  This is the bit-flipped-section-length
        // guarantee the serving daemon's reload path depends on.
        let bytes = write(&sample());
        for pos in 0..bytes.len().saturating_sub(4) {
            let mut corrupt = bytes.clone();
            splice_u32(&mut corrupt, pos, 0xFFFF_FF00);
            if let Ok(decoded) = read(&corrupt) {
                for tree in 0..decoded.num_or_trees() {
                    for &opt in decoded.tree_options(tree) {
                        assert!((opt as usize) < decoded.num_options(), "offset {pos}");
                    }
                }
                for class in 0..decoded.classes().len() {
                    for &tree in decoded.class_trees(ClassId::from_index(class)) {
                        assert!((tree as usize) < decoded.num_or_trees(), "offset {pos}");
                    }
                }
            }
        }
    }

    #[test]
    fn scan_reports_section_counts_and_materializes_identically() {
        let mdes = sample();
        let bytes = write(&mdes);
        let scanned = scan(&bytes).unwrap();
        assert_eq!(scanned.encoding(), mdes.encoding());
        assert_eq!(scanned.num_resources(), mdes.num_resources());
        assert_eq!(scanned.num_options(), mdes.num_options());
        assert_eq!(scanned.num_or_trees(), mdes.num_or_trees());
        assert_eq!(scanned.num_classes(), mdes.classes().len());
        assert_eq!(scanned.num_bypasses(), mdes.bypasses().len());
        assert_eq!(scanned.materialize().unwrap(), mdes);
    }

    #[test]
    fn scan_accepts_exactly_what_read_accepts() {
        // A caller may accept an image on scan() alone and materialize
        // it later, so its verdict must agree with the full decode on
        // every corruption the splice sweep can produce — same
        // accept/reject, same error.
        let bytes = write(&sample());
        for pos in 0..bytes.len().saturating_sub(4) {
            let mut corrupt = bytes.clone();
            splice_u32(&mut corrupt, pos, 0xFFFF_FF00);
            let scanned = scan(&corrupt).map(|s| s.materialize());
            match (scanned, read(&corrupt)) {
                (Ok(Ok(a)), Ok(b)) => assert_eq!(a, b, "offset {pos}"),
                (Ok(Err(e)), Err(f)) => assert_eq!(e, f, "offset {pos}"),
                (Err(e), Err(f)) => assert_eq!(e, f, "offset {pos}"),
                (got, want) => panic!("offset {pos}: scan path {got:?} vs read {want:?}"),
            }
        }
    }

    #[test]
    fn bypasses_round_trip() {
        let mut spec = MdesSpec::new();
        let m = spec.resources_mut().add("M").unwrap();
        let opt = spec.add_option(TableOption::new(vec![ResourceUsage::new(m, 0)]));
        let tree = spec.add_or_tree(OrTree::new(vec![opt]));
        let a = spec
            .add_class("a", Constraint::Or(tree), Latency::new(3), OpFlags::none())
            .unwrap();
        let b = spec
            .add_class("b", Constraint::Or(tree), Latency::new(1), OpFlags::store())
            .unwrap();
        spec.add_bypass(a, b, 1).unwrap();
        let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let loaded = read(&write(&mdes)).unwrap();
        assert_eq!(loaded, mdes);
        assert_eq!(loaded.flow_latency(a, b), 1);
        assert_eq!(loaded.flow_latency(b, a), 1); // default: 1 - 0
    }

    #[test]
    fn encoding_byte_round_trips() {
        let mut spec = MdesSpec::new();
        let m = spec.resources_mut().add("M").unwrap();
        let opt = spec.add_option(TableOption::new(vec![ResourceUsage::new(m, 0)]));
        let tree = spec.add_or_tree(OrTree::new(vec![opt]));
        spec.add_class("c", Constraint::Or(tree), Latency::new(1), OpFlags::none())
            .unwrap();
        for encoding in [UsageEncoding::Scalar, UsageEncoding::BitVector] {
            let mdes = CompiledMdes::compile(&spec, encoding).unwrap();
            assert_eq!(read(&write(&mdes)).unwrap().encoding(), encoding);
        }
    }
}

//! Hand-checked reference totals: `expected/<seed>.txt`.
//!
//! The file holds `key = value` lines (`#` starts a comment).  A run
//! with a seed that has a file compares every total it computes against
//! the file's key of the same name; a key the file lacks, or a seed
//! without a file, leaves only the run's own verification.

use std::collections::BTreeMap;
use std::path::Path;

/// Reference totals for one seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expected {
    values: BTreeMap<String, String>,
}

impl Expected {
    /// Parses the `key = value` format.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut values = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", n + 1))?;
            values.insert(key.trim().to_string(), value.trim().to_string());
        }
        Ok(Expected { values })
    }

    /// Loads `dir/<seed>.txt`; a missing file is an empty reference.
    pub fn load(dir: &Path, seed: u64) -> Result<Expected, String> {
        let path = dir.join(format!("{seed}.txt"));
        match std::fs::read_to_string(&path) {
            Ok(text) => Expected::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Expected::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Compares a computed total with the reference: `Ok` when the
    /// reference has no such key or the values are equal.
    pub fn check(&self, key: &str, actual: impl std::fmt::Display) -> Result<(), String> {
        let actual = actual.to_string();
        match self.values.get(key) {
            Some(want) if *want != actual => Err(format!(
                "`{key}` = {actual}, but the expected file says {want}"
            )),
            _ => Ok(()),
        }
    }
}

/// FNV-1a, folded over 64-bit words: the digest of a sequence of
/// answers in the expected file.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

//! JSON emit/parse for [`Report`].  Emission is hand-formatted (stable
//! key order, one bench per line) so the committed `BENCH_8.json` diffs
//! cleanly; parsing goes through the workspace's one JSON parser,
//! [`mdes_telemetry::json::Json`].

use mdes_telemetry::json::Json;

use crate::{Report, Sample};

/// Serializes a report (stable key order, one bench per line — the
/// committed `BENCH_8.json` should diff cleanly).
pub fn to_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {},\n", report.schema));
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&format!(
        "  \"batch_scaling\": {:.3},\n",
        report.batch_scaling
    ));
    out.push_str(&format!("  \"oracle_gap\": {:.3},\n", report.oracle_gap));
    out.push_str(&format!(
        "  \"serve_p50_us\": {:.3},\n",
        report.serve_p50_us
    ));
    out.push_str(&format!(
        "  \"serve_p99_us\": {:.3},\n",
        report.serve_p99_us
    ));
    out.push_str("  \"benches\": [\n");
    for (i, s) in report.benches.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"reps\": {}, \"ops\": {}, \"median_ns\": {}, \"min_ns\": {}}}{}\n",
            s.name,
            s.iters,
            s.reps,
            s.ops,
            s.median_ns,
            s.min_ns,
            if i + 1 < report.benches.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

impl Report {
    /// [`to_json`] as a method.
    pub fn to_json(&self) -> String {
        to_json(self)
    }

    /// Parses a report emitted by [`to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let top = Json::parse(text)?;
        let schema = field(&top, "schema", Json::as_u64)? as u32;
        // Schema 6 dropped the checker speedup figure and the pointer-chased
        // checker bench behind it; schema 5 replaced the hinted
        // scheduler's gap with `oracle_gap` (the list scheduler's) and
        // dropped the hinted benches; schema 4 added
        // `serve_p50_us`/`serve_p99_us` and the `serve/load/*` family
        // (schema 3 added the oracle gap and the `oracle/bnb/*` family;
        // schema 2 added `batch_scaling` and the w8/w16 engine benches).
        // Older baselines must be regenerated, not silently compared
        // against.
        if schema != 6 {
            return Err(format!("unsupported report schema {schema}"));
        }
        let mut benches = Vec::new();
        for entry in field(&top, "benches", Json::as_arr)? {
            benches.push(Sample {
                name: field(entry, "name", Json::as_str)?.to_string(),
                iters: field(entry, "iters", Json::as_u64)?,
                reps: field(entry, "reps", Json::as_u64)?,
                ops: field(entry, "ops", Json::as_u64)?,
                median_ns: field(entry, "median_ns", Json::as_u64)?.into(),
                min_ns: field(entry, "min_ns", Json::as_u64)?.into(),
            });
        }
        Ok(Report {
            schema,
            seed: field(&top, "seed", Json::as_u64)?,
            benches,
            batch_scaling: field(&top, "batch_scaling", Json::as_f64)?,
            oracle_gap: field(&top, "oracle_gap", Json::as_f64)?,
            serve_p50_us: field(&top, "serve_p50_us", Json::as_f64)?,
            serve_p99_us: field(&top, "serve_p99_us", Json::as_f64)?,
        })
    }
}

/// The object field `key` of `obj`, read as one type.
fn field<'a, T>(
    obj: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    let value = obj.get(key).ok_or_else(|| format!("missing key {key:?}"))?;
    read(value).ok_or_else(|| format!("{key}: unexpected value type"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, ops: u64, median: u128) -> Sample {
        Sample {
            name: name.to_string(),
            iters: 100,
            reps: 5,
            ops,
            median_ns: median,
            min_ns: median - 10,
        }
    }

    fn report() -> Report {
        Report {
            schema: 6,
            seed: 42,
            benches: vec![
                sample("rumap/word_ops", 8192, 1_000_000),
                sample("checker/arena/wide", 2048, 50_000),
            ],
            batch_scaling: 3.2,
            oracle_gap: 1.04,
            serve_p50_us: 850.0,
            serve_p99_us: 2400.0,
        }
    }

    #[test]
    fn json_round_trips() {
        let original = report();
        let decoded = Report::from_json(&original.to_json()).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn emission_is_byte_stable() {
        assert_eq!(report().to_json(), report().to_json());
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        for old in ["\"schema\": 4", "\"schema\": 5", "\"schema\": 9"] {
            let text = report().to_json().replace("\"schema\": 6", old);
            assert!(Report::from_json(&text).unwrap_err().contains("schema"));
        }
    }

    #[test]
    fn committed_baseline_round_trips_byte_identically() {
        let committed = include_str!("../../../BENCH_8.json");
        let report = Report::from_json(committed).unwrap();
        assert_eq!(report.to_json(), committed);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Report::from_json("{\"schema\": ").is_err());
        assert!(Report::from_json("[]").is_err());
        assert!(Report::from_json("{} extra").is_err());
    }
}

//! JSON trace caching on top of `osa_nn::json` (DESIGN.md §1 row 3).
//!
//! The bench harness generates datasets once and replays them across
//! figure binaries, so traces round-trip through JSON bit-exactly (every
//! `f32` survives the `f64` codec unchanged). Serialization is fallible:
//! a trace carrying a non-finite sample yields [`IoError::NonFinite`]
//! rather than panicking mid-benchmark and losing the run. Loading
//! fails closed the same way: a sample that is not a finite,
//! non-negative `f32` rate, or a sampling interval that is not finite
//! and positive, is an [`IoError::Schema`] — never a trace the
//! simulator would stream an ∞ Mbit/s link from.
//!
//! Document schema (version 1):
//!
//! ```json
//! {"version":1,
//!  "traces":[{"id":"gamma_2_2-0000","interval_s":1,"mbps":[2.5,0.25]}]}
//! ```

use std::fmt;
use std::path::Path;

use osa_nn::json::{obj, JsonError, NonFiniteError, Value};

use crate::trace::Trace;

/// Schema version written by [`save_traces`]; bumped on incompatible
/// layout changes so stale caches fail loudly instead of mis-loading.
pub const FORMAT_VERSION: f64 = 1.0;

/// Everything that can go wrong caching traces to disk or reading them
/// back.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not valid JSON.
    Parse(JsonError),
    /// A trace contains NaN/±∞ and cannot be cached.
    NonFinite(NonFiniteError),
    /// The JSON is valid but not a trace document (wrong version, missing
    /// or mistyped field).
    Schema(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "trace I/O failed: {e}"),
            IoError::Parse(e) => write!(f, "trace file is not valid JSON: {e}"),
            IoError::NonFinite(e) => write!(f, "trace is not serializable: {e}"),
            IoError::Schema(msg) => write!(f, "trace document schema violation: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<JsonError> for IoError {
    fn from(e: JsonError) -> Self {
        IoError::Parse(e)
    }
}

impl From<NonFiniteError> for IoError {
    fn from(e: NonFiniteError) -> Self {
        IoError::NonFinite(e)
    }
}

/// Encode one trace as a JSON value.
pub fn trace_to_value(t: &Trace) -> Value {
    obj(vec![
        ("id", Value::Str(t.id.clone())),
        ("interval_s", Value::Num(t.interval_s as f64)),
        (
            "mbps",
            Value::Arr(t.mbps.iter().map(|&x| Value::Num(x as f64)).collect()),
        ),
    ])
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, IoError> {
    v.get(key)
        .ok_or_else(|| IoError::Schema(format!("missing field '{key}'")))
}

/// Decode one trace, validating field types and value ranges.
pub fn trace_from_value(v: &Value) -> Result<Trace, IoError> {
    let id = field(v, "id")?
        .as_str()
        .ok_or_else(|| IoError::Schema("'id' must be a string".into()))?;
    let interval_s = field(v, "interval_s")?
        .as_f32()
        .ok_or_else(|| IoError::Schema("'interval_s' must be a number".into()))?;
    if !(interval_s.is_finite() && interval_s > 0.0) {
        return Err(IoError::Schema(format!(
            "'interval_s' must be finite and positive, got {interval_s}"
        )));
    }
    let mbps = field(v, "mbps")?
        .as_arr()
        .ok_or_else(|| IoError::Schema("'mbps' must be an array".into()))?
        .iter()
        .map(|x| {
            let rate = x
                .as_f32()
                .ok_or_else(|| IoError::Schema("'mbps' entries must be numbers".into()))?;
            if rate.is_finite() && rate >= 0.0 {
                Ok(rate)
            } else {
                Err(IoError::Schema(format!(
                    "'mbps' entries must be finite non-negative f32 rates, got {rate}"
                )))
            }
        })
        .collect::<Result<Vec<f32>, _>>()?;
    Ok(Trace::new(id, interval_s, mbps))
}

/// Encode a corpus as a versioned document.
pub fn traces_to_value(traces: &[Trace]) -> Value {
    obj(vec![
        ("version", Value::Num(FORMAT_VERSION)),
        (
            "traces",
            Value::Arr(traces.iter().map(trace_to_value).collect()),
        ),
    ])
}

/// Decode a versioned corpus document.
pub fn traces_from_value(v: &Value) -> Result<Vec<Trace>, IoError> {
    let version = field(v, "version")?
        .as_f64()
        .ok_or_else(|| IoError::Schema("'version' must be a number".into()))?;
    if version != FORMAT_VERSION {
        return Err(IoError::Schema(format!(
            "unsupported trace format version {version} (expected {FORMAT_VERSION})"
        )));
    }
    field(v, "traces")?
        .as_arr()
        .ok_or_else(|| IoError::Schema("'traces' must be an array".into()))?
        .iter()
        .map(trace_from_value)
        .collect()
}

/// Serialize a corpus to a compact JSON string. Fails (instead of
/// panicking) when any sample is non-finite.
pub fn traces_to_json(traces: &[Trace]) -> Result<String, IoError> {
    Ok(traces_to_value(traces).try_to_json()?)
}

/// Parse a corpus from a JSON string.
pub fn traces_from_json(text: &str) -> Result<Vec<Trace>, IoError> {
    traces_from_value(&Value::parse(text)?)
}

/// Cache a corpus to `path` (compact JSON + trailing newline).
pub fn save_traces<P: AsRef<Path>>(path: P, traces: &[Trace]) -> Result<(), IoError> {
    let text = traces_to_json(traces)?;
    std::fs::write(path, text + "\n")?;
    Ok(())
}

/// Reload a cached corpus from `path`.
pub fn load_traces<P: AsRef<Path>>(path: P) -> Result<Vec<Trace>, IoError> {
    traces_from_json(std::fs::read_to_string(path)?.trim_end())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_trace_roundtrips_bit_exactly() {
        let t = Trace::new("x", 0.5, vec![0.1, 1.0 / 3.0, 4.25, 0.0]);
        let back = trace_from_value(&trace_to_value(&t)).unwrap();
        assert_eq!(back.id, t.id);
        assert_eq!(back.interval_s.to_bits(), t.interval_s.to_bits());
        for (a, b) in back.mbps.iter().zip(&t.mbps) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn nan_sample_is_an_error_not_a_panic() {
        let t = Trace::new("bad", 1.0, vec![1.0, f32::NAN]);
        match traces_to_json(&[t]) {
            Err(IoError::NonFinite(_)) => {}
            other => panic!("expected NonFinite error, got {other:?}"),
        }
    }

    #[test]
    fn schema_violations_are_reported() {
        for (bad, why) in [
            ("{\"traces\":[]}", "missing version"),
            ("{\"version\":99,\"traces\":[]}", "wrong version"),
            ("{\"version\":1}", "missing traces"),
            (
                "{\"version\":1,\"traces\":[{\"id\":\"a\"}]}",
                "missing fields",
            ),
            (
                "{\"version\":1,\"traces\":[{\"id\":1,\"interval_s\":1,\"mbps\":[]}]}",
                "id not a string",
            ),
        ] {
            match traces_from_json(bad) {
                Err(IoError::Schema(_)) => {}
                other => panic!("{why}: expected Schema error, got {other:?}"),
            }
        }
        assert!(matches!(
            traces_from_json("not json"),
            Err(IoError::Parse(_))
        ));
    }

    /// `1e999` lexes as ∞ and `1e39` is finite in f64 but ∞ as an f32:
    /// neither may load as an infinitely fast link, and neither may a
    /// negative rate or a non-positive sampling interval.
    #[test]
    fn hostile_samples_are_schema_errors() {
        let doc = |interval: &str, sample: &str| {
            format!(
                "{{\"version\":1,\"traces\":[{{\"id\":\"a\",\"interval_s\":{interval},\"mbps\":[1,{sample}]}}]}}"
            )
        };
        assert!(traces_from_json(&doc("1", "2.5")).is_ok());
        for (interval, sample) in [
            ("1", "1e999"),
            ("1", "1e39"),
            ("1", "-1e999"),
            ("1", "-1"),
            ("0", "2.5"),
            ("-1", "2.5"),
            ("1e999", "2.5"),
        ] {
            match traces_from_json(&doc(interval, sample)) {
                Err(IoError::Schema(_)) => {}
                other => panic!("interval {interval}, sample {sample}: got {other:?}"),
            }
        }
    }
}

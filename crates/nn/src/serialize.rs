//! Model persistence: networks ↔ JSON, exactly round-tripping weights.
//!
//! The bench harness caches trained agents and ensembles on disk so figure
//! re-runs are incremental; that only works if `save → load` reproduces
//! forward passes bit-for-bit, which the round-trip tests enforce. The
//! format is a versioned [`NetSpec`] document written through the in-tree
//! [`crate::json`] codec.

use std::io;
use std::path::Path;

use crate::json::{obj, JsonError, Value};
use crate::tensor::{Act, Tensor};

/// Current on-disk format version; bump on breaking layout changes.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// Serializable snapshot of one layer: its type tag, geometry, and
/// parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum LayerSpec {
    Dense {
        w: Tensor,
        b: Tensor,
        act: Act,
    },
    Conv1d {
        in_channels: usize,
        length: usize,
        out_channels: usize,
        kernel: usize,
        w: Tensor,
        b: Tensor,
        act: Act,
    },
    ReLU,
    Softmax,
    /// Parallel per-feature heads over disjoint input column ranges
    /// (see [`crate::branches::Branches`]). Parts must be `Dense` or
    /// `Conv1d`; the loader rejects anything else.
    Branches {
        parts: Vec<LayerSpec>,
    },
}

impl LayerSpec {
    /// Input and output width of a sized layer; `None` for the
    /// shape-preserving `ReLU`/`Softmax` and for widths that overflow
    /// `usize` (a forged document).
    pub fn widths(&self) -> Option<(usize, usize)> {
        match self {
            LayerSpec::Dense { w, .. } => Some((w.rows(), w.cols())),
            LayerSpec::Conv1d {
                in_channels,
                length,
                out_channels,
                kernel,
                ..
            } => {
                let out_len = length.checked_sub(*kernel)?.checked_add(1)?;
                Some((
                    in_channels.checked_mul(*length)?,
                    out_channels.checked_mul(out_len)?,
                ))
            }
            LayerSpec::Branches { parts } => {
                let mut dims = (0usize, 0usize);
                for p in parts {
                    let (i, o) = p.widths()?;
                    dims = (dims.0.checked_add(i)?, dims.1.checked_add(o)?);
                }
                Some(dims)
            }
            LayerSpec::ReLU | LayerSpec::Softmax => None,
        }
    }
}

/// Activation tag for fused layers. `Identity` is omitted from the JSON so
/// documents written before fused activations existed parse unchanged, and
/// unfused nets keep producing byte-identical files.
fn act_to_json(act: Act) -> Option<(&'static str, Value)> {
    match act {
        Act::Identity => None,
        Act::Relu => Some(("act", Value::Str("relu".into()))),
    }
}

fn act_from_json(v: &Value) -> Result<Act, LoadError> {
    match v.get("act") {
        None => Ok(Act::Identity),
        Some(a) => match a.as_str() {
            Some("relu") => Ok(Act::Relu),
            Some(other) => Err(schema(format!("unknown activation '{other}'"))),
            None => Err(schema("'act' must be a string")),
        },
    }
}

/// Serializable snapshot of a [`crate::net::Sequential`] network.
#[derive(Clone, Debug, PartialEq)]
pub struct NetSpec {
    pub(crate) version: u32,
    pub layers: Vec<LayerSpec>,
}

/// Error deserializing a model document.
#[derive(Debug)]
pub enum LoadError {
    Json(JsonError),
    /// Structurally valid JSON that is not a valid model document.
    Schema(String),
    /// A tensor element that is not a finite `f32`: either a literal
    /// that overflowed `f64` (`1e999`) or one that is finite in `f64`
    /// but overflows `f32` (`1e39`). Carries the parsed `f64` and the
    /// element's index in the tensor's `data` array.
    NonFinite {
        index: usize,
        value: f64,
    },
    Io(io::Error),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Json(e) => write!(f, "{e}"),
            LoadError::Schema(msg) => write!(f, "model schema error: {msg}"),
            LoadError::NonFinite { index, value } => write!(
                f,
                "model weight error: tensor element {index} ({value:e}) is not a finite f32"
            ),
            LoadError::Io(e) => write!(f, "model i/o error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<JsonError> for LoadError {
    fn from(e: JsonError) -> Self {
        LoadError::Json(e)
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

fn schema(msg: impl Into<String>) -> LoadError {
    LoadError::Schema(msg.into())
}

/// Tensor → `{"rows": r, "cols": c, "data": [...]}`.
pub(crate) fn tensor_to_json(t: &Tensor) -> Value {
    Value::Obj(
        [
            ("rows".to_string(), Value::Num(t.rows() as f64)),
            ("cols".to_string(), Value::Num(t.cols() as f64)),
            (
                "data".to_string(),
                Value::Arr(t.data().iter().map(|&x| Value::Num(x as f64)).collect()),
            ),
        ]
        .into_iter()
        .collect(),
    )
}

/// Inverse of [`tensor_to_json`], validating shape consistency and that
/// every element is a finite `f32` after the `f64 → f32` conversion.
pub(crate) fn tensor_from_json(v: &Value) -> Result<Tensor, LoadError> {
    let rows = v
        .get("rows")
        .and_then(Value::as_usize)
        .ok_or_else(|| schema("tensor missing 'rows'"))?;
    let cols = v
        .get("cols")
        .and_then(Value::as_usize)
        .ok_or_else(|| schema("tensor missing 'cols'"))?;
    let data = v
        .get("data")
        .and_then(Value::as_arr)
        .ok_or_else(|| schema("tensor missing 'data'"))?;
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(schema(format!(
            "tensor data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        )));
    }
    let mut buf = Vec::with_capacity(data.len());
    for (index, item) in data.iter().enumerate() {
        let value = item
            .as_f64()
            .ok_or_else(|| schema("non-numeric tensor element"))?;
        let x = value as f32;
        if !x.is_finite() {
            return Err(LoadError::NonFinite { index, value });
        }
        buf.push(x);
    }
    Ok(Tensor::from_vec(rows, cols, buf))
}

fn layer_to_json(spec: &LayerSpec) -> Value {
    match spec {
        LayerSpec::Dense { w, b, act } => {
            let mut fields = vec![
                ("type", Value::Str("dense".into())),
                ("w", tensor_to_json(w)),
                ("b", tensor_to_json(b)),
            ];
            fields.extend(act_to_json(*act));
            obj(fields)
        }
        LayerSpec::Conv1d {
            in_channels,
            length,
            out_channels,
            kernel,
            w,
            b,
            act,
        } => {
            let mut fields = vec![
                ("type", Value::Str("conv1d".into())),
                ("in_channels", Value::Num(*in_channels as f64)),
                ("length", Value::Num(*length as f64)),
                ("out_channels", Value::Num(*out_channels as f64)),
                ("kernel", Value::Num(*kernel as f64)),
                ("w", tensor_to_json(w)),
                ("b", tensor_to_json(b)),
            ];
            fields.extend(act_to_json(*act));
            obj(fields)
        }
        LayerSpec::ReLU => obj(vec![("type", Value::Str("relu".into()))]),
        LayerSpec::Softmax => obj(vec![("type", Value::Str("softmax".into()))]),
        LayerSpec::Branches { parts } => obj(vec![
            ("type", Value::Str("branches".into())),
            (
                "parts",
                Value::Arr(parts.iter().map(layer_to_json).collect()),
            ),
        ]),
    }
}

fn layer_from_json(v: &Value) -> Result<LayerSpec, LoadError> {
    let ty = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| schema("layer missing 'type'"))?;
    let field = |name: &str| {
        v.get(name)
            .ok_or_else(|| schema(format!("{ty} layer missing '{name}'")))
    };
    let dim = |name: &str| -> Result<usize, LoadError> {
        field(name)?.as_usize().ok_or_else(|| {
            schema(format!(
                "{ty} layer '{name}' must be a non-negative integer"
            ))
        })
    };
    match ty {
        "dense" => {
            let w = tensor_from_json(field("w")?)?;
            let b = tensor_from_json(field("b")?)?;
            let act = act_from_json(v)?;
            if b.rows() != 1 || b.cols() != w.cols() {
                return Err(schema("dense bias shape does not match weights"));
            }
            Ok(LayerSpec::Dense { w, b, act })
        }
        "conv1d" => {
            let in_channels = dim("in_channels")?;
            let length = dim("length")?;
            let out_channels = dim("out_channels")?;
            let kernel = dim("kernel")?;
            let w = tensor_from_json(field("w")?)?;
            let b = tensor_from_json(field("b")?)?;
            let act = act_from_json(v)?;
            if kernel == 0 || kernel > length {
                return Err(schema("conv1d kernel must fit the signal"));
            }
            if in_channels.checked_mul(length).is_none() {
                return Err(schema("conv1d input width overflows"));
            }
            if w.rows() != out_channels || w.cols() != in_channels * kernel {
                return Err(schema("conv1d weight shape does not match geometry"));
            }
            if b.rows() != 1 || b.cols() != out_channels {
                return Err(schema("conv1d bias shape does not match out_channels"));
            }
            Ok(LayerSpec::Conv1d {
                in_channels,
                length,
                out_channels,
                kernel,
                w,
                b,
                act,
            })
        }
        "relu" => Ok(LayerSpec::ReLU),
        "softmax" => Ok(LayerSpec::Softmax),
        "branches" => {
            let parts = field("parts")?
                .as_arr()
                .ok_or_else(|| schema("branches 'parts' must be an array"))?;
            if parts.is_empty() {
                return Err(schema("branches needs at least one part"));
            }
            let parts = parts
                .iter()
                .map(layer_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            if !parts
                .iter()
                .all(|p| matches!(p, LayerSpec::Dense { .. } | LayerSpec::Conv1d { .. }))
            {
                return Err(schema("branches parts must be dense or conv1d layers"));
            }
            Ok(LayerSpec::Branches { parts })
        }
        other => Err(schema(format!("unknown layer type '{other}'"))),
    }
}

impl NetSpec {
    pub fn new(layers: Vec<LayerSpec>) -> Self {
        NetSpec {
            version: FORMAT_VERSION,
            layers,
        }
    }

    /// The document tree: `{format_version, layers: [...]}`.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("format_version", Value::Num(self.version as f64)),
            (
                "layers",
                Value::Arr(self.layers.iter().map(layer_to_json).collect()),
            ),
        ])
    }

    pub(crate) fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    pub fn from_json(text: &str) -> Result<NetSpec, LoadError> {
        NetSpec::from_value(&Value::parse(text)?)
    }

    /// Inverse of [`NetSpec::to_value`]: validates the version, every
    /// layer's schema and shapes, that each sized layer's input width is
    /// the output width of the sized layer before it, and that every
    /// weight is finite.
    pub(crate) fn from_value(doc: &Value) -> Result<NetSpec, LoadError> {
        let version = doc
            .get("format_version")
            .and_then(Value::as_usize)
            .ok_or_else(|| schema("missing 'format_version'"))?;
        if version != FORMAT_VERSION as usize {
            return Err(schema(format!(
                "unsupported format_version {version} (supported: {FORMAT_VERSION})"
            )));
        }
        let layers = doc
            .get("layers")
            .and_then(Value::as_arr)
            .ok_or_else(|| schema("missing 'layers'"))?;
        let layers = layers
            .iter()
            .map(layer_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let mut prev_out: Option<usize> = None;
        for (i, layer) in layers.iter().enumerate() {
            if matches!(layer, LayerSpec::ReLU | LayerSpec::Softmax) {
                continue;
            }
            let (inw, outw) = layer
                .widths()
                .ok_or_else(|| schema(format!("layer {i} width overflows")))?;
            if let Some(prev) = prev_out.filter(|&p| p != inw) {
                return Err(schema(format!(
                    "layer {i} takes {inw} inputs but the layer before it yields {prev}"
                )));
            }
            prev_out = Some(outw);
        }
        Ok(NetSpec::new(layers))
    }

    pub(crate) fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    pub(crate) fn load(path: impl AsRef<Path>) -> Result<NetSpec, LoadError> {
        let text = std::fs::read_to_string(path)?;
        NetSpec::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> NetSpec {
        NetSpec::new(vec![
            LayerSpec::Conv1d {
                in_channels: 1,
                length: 4,
                out_channels: 2,
                kernel: 2,
                w: Tensor::from_rows(&[vec![0.1, -0.2], vec![0.3, 0.4]]),
                b: Tensor::from_rows(&[vec![0.0, 1.0]]),
                act: Act::Relu,
            },
            LayerSpec::ReLU,
            LayerSpec::Dense {
                w: Tensor::from_rows(&[
                    vec![1.0],
                    vec![2.0],
                    vec![3.0],
                    vec![4.0],
                    vec![5.0],
                    vec![6.0],
                ]),
                b: Tensor::from_rows(&[vec![-0.5]]),
                act: Act::Identity,
            },
            LayerSpec::Softmax,
        ])
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = sample_spec();
        let text = spec.to_json();
        let back = NetSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = sample_spec()
            .to_json()
            .replace("\"format_version\":1", "\"format_version\":99");
        assert!(matches!(
            NetSpec::from_json(&text),
            Err(LoadError::Schema(_))
        ));
    }

    #[test]
    fn shape_lies_are_rejected() {
        // Claim 3 columns for a 2-element bias.
        let text = r#"{"format_version":1,"layers":[{"type":"dense",
            "w":{"rows":1,"cols":2,"data":[1,2]},
            "b":{"rows":1,"cols":3,"data":[0,0]}}]}"#;
        assert!(NetSpec::from_json(text).is_err());
        // 2^32 × 2^32 wraps to 0 elements in usize arithmetic.
        let text = r#"{"format_version":1,"layers":[{"type":"dense",
            "w":{"rows":4294967296,"cols":4294967296,"data":[]},
            "b":{"rows":1,"cols":4294967296,"data":[]}}]}"#;
        assert!(NetSpec::from_json(text).is_err());
        // An empty conv whose input width in_channels·length overflows.
        let text = r#"{"format_version":1,"layers":[{"type":"conv1d",
            "in_channels":8589934592,"length":8589934592,"out_channels":0,"kernel":1,
            "w":{"rows":0,"cols":8589934592,"data":[]},
            "b":{"rows":1,"cols":0,"data":[]}}]}"#;
        assert!(NetSpec::from_json(text).is_err());
        // Each layer is well formed, but a 3×8 layer cannot feed a 5×2 one.
        let text = r#"{"format_version":1,"layers":[{"type":"dense",
            "w":{"rows":3,"cols":8,"data":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},
            "b":{"rows":1,"cols":8,"data":[0,0,0,0,0,0,0,0]}},{"type":"dense",
            "w":{"rows":5,"cols":2,"data":[0,0,0,0,0,0,0,0,0,0]},
            "b":{"rows":1,"cols":2,"data":[0,0]}}]}"#;
        assert!(matches!(
            NetSpec::from_json(text),
            Err(LoadError::Schema(msg)) if msg.contains("layer 1 takes 5 inputs")
        ));
    }

    #[test]
    fn unknown_layer_type_is_rejected() {
        let text = r#"{"format_version":1,"layers":[{"type":"lstm"}]}"#;
        assert!(matches!(
            NetSpec::from_json(text),
            Err(LoadError::Schema(msg)) if msg.contains("lstm")
        ));
    }

    #[test]
    fn malformed_json_is_a_json_error() {
        assert!(matches!(
            NetSpec::from_json("{not json"),
            Err(LoadError::Json(_))
        ));
    }
}

//! Dependency-free JSON serialization substrate for model persistence.
//!
//! The psmgen workspace must build with **no network access**, so trained
//! models cannot be persisted through `serde`/`serde_json`. This crate
//! provides the minimal replacement: an explicit [`JsonValue`] document
//! model, a strict parser, a deterministic compact writer, and the
//! [`Persist`] trait that every persistable model type implements by hand.
//!
//! Determinism is load-bearing: the facade's parallel training engine
//! promises a **byte-identical** serialized `TrainedModel` regardless of
//! worker count, which requires object keys in fixed order and a canonical
//! number syntax. [`JsonValue`] therefore keeps object fields in insertion
//! order (no hash maps) and renders floats through Rust's shortest
//! round-trip `Display`.
//!
//! # Examples
//!
//! ```
//! use psm_persist::JsonValue;
//!
//! let doc = JsonValue::obj([
//!     ("name", JsonValue::from("ram1k")),
//!     ("states", JsonValue::from(4u64)),
//!     ("mre", JsonValue::from_f64(0.062)),
//! ]);
//! let text = doc.render();
//! assert_eq!(text, r#"{"name":"ram1k","states":4,"mre":0.062}"#);
//! let back = JsonValue::parse(&text).unwrap();
//! assert_eq!(back.field("states").unwrap().as_u64().unwrap(), 4);
//! ```
#![deny(missing_docs)]

use std::error::Error;
use std::fmt;

pub mod artifact;
mod parse;
mod render;

pub use artifact::{
    decode_artifact, encode_artifact, list_artifacts, probe_file_version, probe_version,
    split_artifact, ArtifactEntry, ARTIFACT_MAGIC, ARTIFACT_VERSION, ARTIFACT_VERSION_MAX,
};
pub use parse::parse_document;

/// Maximum nesting depth accepted by the parser.
pub const MAX_DEPTH: usize = 128;

/// An owned JSON document.
///
/// Numbers are split into three variants so that `u64` trace counters and
/// `Bits` words survive round trips exactly (an `f64` cannot represent every
/// `u64`). Object fields keep insertion order, which makes rendering
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer written without sign, decimal point or
    /// exponent.
    UInt(u64),
    /// A negative integer (non-negative integers parse as [`UInt`](Self::UInt)).
    Int(i64),
    /// Any number written with a decimal point or exponent, or an integer
    /// too large for the integer variants.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; fields keep insertion order and may not repeat.
    Obj(Vec<(String, JsonValue)>),
}

/// Failure while parsing or interpreting a JSON document.
#[derive(Debug)]
pub enum PersistError {
    /// The text is not well-formed JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The document is well-formed but does not match the expected shape.
    Schema(String),
    /// An artifact or registry file could not be read at all.
    Io(std::io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Parse { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            PersistError::Schema(msg) => write!(f, "JSON schema error: {msg}"),
            PersistError::Io(e) => write!(f, "artifact i/o error: {e}"),
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl PersistError {
    /// Convenience constructor for schema violations.
    pub fn schema(msg: impl Into<String>) -> Self {
        PersistError::Schema(msg.into())
    }
}

/// A type that can be converted to and from a [`JsonValue`].
///
/// Implementations are written by hand, one per persistable type, and live in
/// the crate that owns the type (so they can reach private fields and rebuild
/// derived state — e.g. `PropositionTable` reconstructs its lookup index on
/// load).
pub trait Persist: Sized {
    /// Converts `self` into a JSON document.
    fn to_json(&self) -> JsonValue;

    /// Rebuilds a value from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Schema`] when the document does not describe a
    /// valid value of this type.
    fn from_json(v: &JsonValue) -> Result<Self, PersistError>;
}

impl JsonValue {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Parse`] on malformed input, including
    /// trailing non-whitespace and nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<JsonValue, PersistError> {
        parse::parse_document(text)
    }

    /// Renders the document as compact JSON.
    ///
    /// The output is deterministic: equal documents render to equal bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render::render_value(self, &mut out);
        out
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = JsonValue>) -> JsonValue {
        JsonValue::Arr(items.into_iter().collect())
    }

    /// Wraps an `f64`, representing non-finite values as the strings
    /// `"Infinity"`, `"-Infinity"` and `"NaN"` (plain JSON has no syntax for
    /// them). [`as_f64`](Self::as_f64) reverses the encoding.
    pub fn from_f64(v: f64) -> JsonValue {
        if v.is_finite() {
            JsonValue::Float(v)
        } else if v.is_nan() {
            JsonValue::Str("NaN".to_owned())
        } else if v > 0.0 {
            JsonValue::Str("Infinity".to_owned())
        } else {
            JsonValue::Str("-Infinity".to_owned())
        }
    }

    /// The value as a `u64` (rejects negative and fractional numbers).
    pub fn as_u64(&self) -> Result<u64, PersistError> {
        match self {
            JsonValue::UInt(n) => Ok(*n),
            other => Err(type_error("unsigned integer", other)),
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, PersistError> {
        usize::try_from(self.as_u64()?)
            .map_err(|_| PersistError::schema("integer out of usize range"))
    }

    /// The value as an `i64`.
    pub fn as_i64(&self) -> Result<i64, PersistError> {
        match self {
            JsonValue::UInt(n) => {
                i64::try_from(*n).map_err(|_| PersistError::schema("integer out of i64 range"))
            }
            JsonValue::Int(n) => Ok(*n),
            other => Err(type_error("integer", other)),
        }
    }

    /// The value as an `f64`. Accepts any numeric variant plus the
    /// non-finite encodings produced by [`from_f64`](Self::from_f64).
    pub fn as_f64(&self) -> Result<f64, PersistError> {
        match self {
            JsonValue::UInt(n) => Ok(*n as f64),
            JsonValue::Int(n) => Ok(*n as f64),
            JsonValue::Float(v) => Ok(*v),
            JsonValue::Str(s) => match s.as_str() {
                "Infinity" => Ok(f64::INFINITY),
                "-Infinity" => Ok(f64::NEG_INFINITY),
                "NaN" => Ok(f64::NAN),
                _ => Err(PersistError::schema(format!(
                    "expected number, found string {s:?}"
                ))),
            },
            other => Err(type_error("number", other)),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, PersistError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(type_error("string", other)),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[JsonValue], PersistError> {
        match self {
            JsonValue::Arr(items) => Ok(items),
            other => Err(type_error("array", other)),
        }
    }

    /// The value as object fields.
    pub fn as_obj(&self) -> Result<&[(String, JsonValue)], PersistError> {
        match self {
            JsonValue::Obj(fields) => Ok(fields),
            other => Err(type_error("object", other)),
        }
    }

    /// Looks a field up in an object, or `None` when absent.
    pub fn get(&self, name: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks a required field up in an object.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Schema`] when `self` is not an object or the
    /// field is missing.
    pub fn field(&self, name: &str) -> Result<&JsonValue, PersistError> {
        self.as_obj()?;
        self.get(name)
            .ok_or_else(|| PersistError::schema(format!("missing field {name:?}")))
    }

    /// Shorthand for `field(name)?.as_u64()`.
    pub fn u64_field(&self, name: &str) -> Result<u64, PersistError> {
        self.field(name)?.as_u64()
    }

    /// Shorthand for `field(name)?.as_usize()`.
    pub fn usize_field(&self, name: &str) -> Result<usize, PersistError> {
        self.field(name)?.as_usize()
    }

    /// Shorthand for `field(name)?.as_f64()`.
    pub fn f64_field(&self, name: &str) -> Result<f64, PersistError> {
        self.field(name)?.as_f64()
    }

    /// Shorthand for `field(name)?.as_str()`.
    pub fn str_field(&self, name: &str) -> Result<&str, PersistError> {
        self.field(name)?.as_str()
    }

    /// Shorthand for `field(name)?.as_arr()`.
    pub fn arr_field(&self, name: &str) -> Result<&[JsonValue], PersistError> {
        self.field(name)?.as_arr()
    }

    /// One-word description of the variant, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::UInt(_) | JsonValue::Int(_) => "integer",
            JsonValue::Float(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }
}

fn type_error(expected: &str, found: &JsonValue) -> PersistError {
    PersistError::schema(format!("expected {expected}, found {}", found.kind()))
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(v as u64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl Persist for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::from_f64(*self)
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        v.as_f64()
    }
}

impl Persist for u64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::UInt(*self)
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        v.as_u64()
    }
}

impl Persist for usize {
    fn to_json(&self) -> JsonValue {
        JsonValue::UInt(*self as u64)
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        v.as_usize()
    }
}

impl Persist for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        Ok(v.as_str()?.to_owned())
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(Persist::to_json).collect())
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.render(), text, "round trip of {text}");
        }
    }

    #[test]
    fn u64_extremes_survive() {
        let v = JsonValue::from(u64::MAX);
        let back = JsonValue::parse(&v.render()).unwrap();
        assert_eq!(back.as_u64().unwrap(), u64::MAX);
        let v = JsonValue::Int(i64::MIN);
        let back = JsonValue::parse(&v.render()).unwrap();
        assert_eq!(back.as_i64().unwrap(), i64::MIN);
    }

    #[test]
    fn f64_shortest_round_trip() {
        for x in [0.1, 1.0 / 3.0, 6.62607015e-34, 2.0f64.powi(60), -0.0625] {
            let v = JsonValue::from_f64(x);
            let back = JsonValue::parse(&v.render()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn non_finite_floats_encode_as_strings() {
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            let v = JsonValue::from_f64(x);
            let back = JsonValue::parse(&v.render()).unwrap();
            assert_eq!(back.as_f64().unwrap(), x);
        }
        let v = JsonValue::from_f64(f64::NAN);
        let back = JsonValue::parse(&v.render()).unwrap();
        assert!(back.as_f64().unwrap().is_nan());
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "quote \" backslash \\ newline \n tab \t nul \u{0} unicode ü";
        let v = JsonValue::from(nasty);
        let back = JsonValue::parse(&v.render()).unwrap();
        assert_eq!(back.as_str().unwrap(), nasty);
    }

    #[test]
    fn object_field_order_is_preserved() {
        let v = JsonValue::obj([
            ("zeta", JsonValue::from(1u64)),
            ("alpha", JsonValue::from(2u64)),
        ]);
        assert_eq!(v.render(), r#"{"zeta":1,"alpha":2}"#);
        let back = JsonValue::parse(&v.render()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "01",
            "1.",
            "+1",
            "\"\\x\"",
            "[1] extra",
            "{\"a\":1,\"a\":2}",
            "nan",
        ] {
            assert!(
                matches!(JsonValue::parse(text), Err(PersistError::Parse { .. })),
                "{text:?} should fail to parse"
            );
        }
    }

    #[test]
    fn parse_rejects_excessive_depth() {
        let mut text = String::new();
        for _ in 0..(MAX_DEPTH + 1) {
            text.push('[');
        }
        assert!(JsonValue::parse(&text).is_err());
    }

    #[test]
    fn schema_errors_name_the_problem() {
        let v = JsonValue::parse(r#"{"a":1}"#).unwrap();
        let err = v.field("b").unwrap_err();
        assert!(err.to_string().contains("\"b\""));
        let err = v.field("a").unwrap().as_str().unwrap_err();
        assert!(err.to_string().contains("string"));
    }

    #[test]
    fn vec_persist_round_trips() {
        let xs: Vec<u64> = vec![1, 2, 3];
        let back = Vec::<u64>::from_json(&xs.to_json()).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn errors_implement_error() {
        let err: Box<dyn std::error::Error> = Box::new(PersistError::schema("x"));
        assert!(err.to_string().contains("x"));
    }
}

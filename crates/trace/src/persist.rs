//! [`Persist`] implementations for the trace substrate.
//!
//! These are the leaf encodings of the facade's `TrainedModel` JSON format:
//! bit-vectors and signal declarations. `Bits` words are `u64` and must
//! round-trip exactly, which is why the document model distinguishes
//! integers from floats.

use crate::{Bits, Direction, FunctionalTrace, SignalDecl, SignalId, SignalSet};
use psm_persist::{JsonValue, Persist, PersistError};

impl Persist for Bits {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("width", JsonValue::from(self.width())),
            (
                "words",
                JsonValue::arr(self.as_words().iter().map(|&w| JsonValue::from(w))),
            ),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        let width = v.usize_field("width")?;
        if width == 0 {
            return Err(PersistError::schema("Bits width must be non-zero"));
        }
        let words: Vec<u64> = v
            .arr_field("words")?
            .iter()
            .map(JsonValue::as_u64)
            .collect::<Result<_, _>>()?;
        if words.len() != width.div_ceil(64) {
            return Err(PersistError::schema(format!(
                "Bits of width {width} needs {} word(s), found {}",
                width.div_ceil(64),
                words.len()
            )));
        }
        let bits = Bits::from_words(&words, width);
        if bits.as_words() != words {
            return Err(PersistError::schema(
                "Bits words have bits set above the declared width",
            ));
        }
        Ok(bits)
    }
}

impl Persist for Direction {
    fn to_json(&self) -> JsonValue {
        JsonValue::from(match self {
            Direction::Input => "in",
            Direction::Output => "out",
        })
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        match v.as_str()? {
            "in" => Ok(Direction::Input),
            "out" => Ok(Direction::Output),
            other => Err(PersistError::schema(format!(
                "unknown signal direction {other:?}"
            ))),
        }
    }
}

impl Persist for SignalId {
    fn to_json(&self) -> JsonValue {
        JsonValue::from(self.index())
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        Ok(SignalId(v.as_usize()?))
    }
}

impl Persist for SignalDecl {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("name", JsonValue::from(self.name())),
            ("width", JsonValue::from(self.width())),
            ("dir", self.direction().to_json()),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        // Validation (non-zero width) happens when the decl is pushed into a
        // SignalSet; a bare decl only checks its own fields.
        let width = v.usize_field("width")?;
        if width == 0 {
            return Err(PersistError::schema("signal width must be non-zero"));
        }
        Ok(SignalDecl::new(
            v.str_field("name")?.to_owned(),
            width,
            Direction::from_json(v.field("dir")?)?,
        ))
    }
}

impl Persist for SignalSet {
    fn to_json(&self) -> JsonValue {
        JsonValue::arr(self.iter().map(|(_, d)| d.to_json()))
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        let mut set = SignalSet::new();
        for item in v.as_arr()? {
            let decl = SignalDecl::from_json(item)?;
            set.push(decl.name().to_owned(), decl.width(), decl.direction())
                .map_err(|e| PersistError::schema(format!("invalid signal set: {e}")))?;
        }
        Ok(set)
    }
}

impl Persist for FunctionalTrace {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("signals", self.signals().to_json()),
            (
                "cycles",
                JsonValue::arr(
                    self.iter()
                        .map(|cycle| JsonValue::arr(cycle.iter().map(|v| v.to_json()))),
                ),
            ),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        let signals = SignalSet::from_json(v.field("signals")?)?;
        let mut trace = FunctionalTrace::new(signals);
        for (t, cycle) in v.arr_field("cycles")?.iter().enumerate() {
            let values: Vec<Bits> = cycle
                .as_arr()?
                .iter()
                .map(Bits::from_json)
                .collect::<Result<_, _>>()?;
            trace
                .push_cycle(values)
                .map_err(|e| PersistError::schema(format!("invalid cycle {t}: {e}")))?;
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: &T) {
        let text = value.to_json().render();
        let back = T::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, value, "round trip through {text}");
    }

    #[test]
    fn bits_round_trip() {
        round_trip(&Bits::from_bool(true));
        round_trip(&Bits::from_u64(0xDEAD_BEEF, 37));
        round_trip(&Bits::from_words(&[u64::MAX, u64::MAX, 0x3], 130));
    }

    #[test]
    fn bits_reject_overwide_words() {
        let doc = JsonValue::parse(r#"{"width":4,"words":[255]}"#).unwrap();
        assert!(Bits::from_json(&doc).is_err());
        let doc = JsonValue::parse(r#"{"width":4,"words":[1,2]}"#).unwrap();
        assert!(Bits::from_json(&doc).is_err());
        let doc = JsonValue::parse(r#"{"width":0,"words":[]}"#).unwrap();
        assert!(Bits::from_json(&doc).is_err());
    }

    #[test]
    fn signal_set_round_trip() {
        let mut set = SignalSet::new();
        set.push("clk_en", 1, Direction::Input).unwrap();
        set.push("data", 32, Direction::Output).unwrap();
        round_trip(&set);
    }

    #[test]
    fn signal_set_rejects_duplicates() {
        let doc = JsonValue::parse(
            r#"[{"name":"a","width":1,"dir":"in"},{"name":"a","width":2,"dir":"out"}]"#,
        )
        .unwrap();
        assert!(SignalSet::from_json(&doc).is_err());
    }

    #[test]
    fn direction_rejects_unknown() {
        let doc = JsonValue::parse(r#""sideways""#).unwrap();
        assert!(Direction::from_json(&doc).is_err());
    }

    #[test]
    fn functional_trace_round_trip() {
        let mut set = SignalSet::new();
        set.push("en", 1, Direction::Input).unwrap();
        set.push("q", 8, Direction::Output).unwrap();
        let mut trace = FunctionalTrace::new(set);
        trace
            .push_cycle(vec![Bits::from_bool(true), Bits::from_u64(0x10, 8)])
            .unwrap();
        trace
            .push_cycle(vec![Bits::from_bool(false), Bits::from_u64(0x13, 8)])
            .unwrap();
        round_trip(&trace);
    }

    #[test]
    fn functional_trace_rejects_malformed_cycles() {
        // Cycle 1 has the wrong arity.
        let doc = JsonValue::parse(
            r#"{"signals":[{"name":"a","width":1,"dir":"in"}],
                "cycles":[[{"width":1,"words":[1]}],[]]}"#,
        )
        .unwrap();
        let err = FunctionalTrace::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("cycle 1"), "{err}");
    }
}

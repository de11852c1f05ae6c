//! JSON persistence of a [`CompiledModel`] — the `"compiled"` section of a
//! `psmgen-artifact/v3`.
//!
//! The section holds exactly the tables the forward pass reads. The
//! alternative-buffer capacity is derived state, recomputed on load by the
//! same function compilation uses.
//!
//! Loading performs full structural validation and returns a structured
//! [`PersistError::Schema`](psm_persist::PersistError) (never a panic, never
//! a silent fallback) when any table length disagrees with the declared
//! state/symbol/proposition counts, when an offset table is non-monotonic,
//! when an index is out of range, or when the entry table does not match
//! the chain table it accelerates.
//!
//! Keys the section does not define are ignored. Sections written by
//! earlier builds also carry `row_words`, `pi`, `entry_chain`, `attr_mu`,
//! `attr_sigma`, `attr_n`, `dict_rows` and `dict_codes`; they still load,
//! and re-rendering drops those keys.

use psm_persist::{JsonValue, Persist, PersistError};

use crate::model::{CompiledModel, EntryTable};

fn u32s_to_json(values: &[u32]) -> JsonValue {
    JsonValue::Arr(
        values
            .iter()
            .map(|&v| JsonValue::UInt(u64::from(v)))
            .collect(),
    )
}

fn bools_to_json(values: &[bool]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|&v| JsonValue::Bool(v)).collect())
}

fn u32s_field(v: &JsonValue, name: &str) -> Result<Vec<u32>, PersistError> {
    v.arr_field(name)?
        .iter()
        .map(|x| {
            let raw = x.as_u64()?;
            u32::try_from(raw).map_err(|_| {
                PersistError::schema(format!("compiled field '{name}' holds {raw}, beyond u32"))
            })
        })
        .collect()
}

fn bools_field(v: &JsonValue, name: &str) -> Result<Vec<bool>, PersistError> {
    v.arr_field(name)?.iter().map(|x| x.as_bool()).collect()
}

fn f64s_field(v: &JsonValue, name: &str) -> Result<Vec<f64>, PersistError> {
    v.arr_field(name)?.iter().map(|x| x.as_f64()).collect()
}

fn expect_len(name: &str, len: usize, want: usize) -> Result<(), PersistError> {
    if len == want {
        Ok(())
    } else {
        Err(PersistError::schema(format!(
            "compiled table '{name}' has {len} entries, expected {want} from the declared counts"
        )))
    }
}

/// An offset table: `len` entries expected, starts at zero, monotone
/// non-decreasing (strictly increasing when `strict`), ending at `total`.
fn expect_offsets(
    name: &str,
    off: &[u32],
    len: usize,
    strict: bool,
    total: usize,
) -> Result<(), PersistError> {
    expect_len(name, off.len(), len)?;
    if off.first() != Some(&0) {
        return Err(PersistError::schema(format!(
            "compiled offset table '{name}' must start at 0"
        )));
    }
    for w in off.windows(2) {
        if w[1] < w[0] || (strict && w[1] == w[0]) {
            return Err(PersistError::schema(format!(
                "compiled offset table '{name}' is not {} (…{}, {}…)",
                if strict {
                    "strictly increasing"
                } else {
                    "monotone"
                },
                w[0],
                w[1]
            )));
        }
    }
    if *off.last().expect("len >= 1 checked") as usize != total {
        return Err(PersistError::schema(format!(
            "compiled offset table '{name}' ends at {} but the indexed table has {total} entries",
            off.last().expect("len >= 1 checked")
        )));
    }
    Ok(())
}

fn expect_in_range(name: &str, values: &[u32], bound: usize) -> Result<(), PersistError> {
    if let Some(&v) = values.iter().find(|&&v| v as usize >= bound) {
        return Err(PersistError::schema(format!(
            "compiled table '{name}' references index {v}, but only {bound} are declared"
        )));
    }
    Ok(())
}

/// The stochastic-row predicate `Hmm`'s own persistence enforces.
fn is_distribution(row: impl Iterator<Item = f64> + Clone) -> bool {
    let sum: f64 = row.clone().sum();
    row.clone().all(|p| (0.0..=1.0).contains(&p)) && (sum - 1.0).abs() < 1e-6
}

impl Persist for CompiledModel {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("states", JsonValue::UInt(self.m as u64)),
            ("symbols", JsonValue::UInt(self.k as u64)),
            ("props", JsonValue::UInt(self.entries.props as u64)),
            ("at", self.at.to_json()),
            ("bt", self.bt.to_json()),
            ("emission", self.emission.to_json()),
            ("emission_ok", bools_to_json(&self.emission_ok)),
            ("chain_off", u32s_to_json(&self.chain_off)),
            ("part_off", u32s_to_json(&self.part_off)),
            ("part_left", u32s_to_json(&self.part_left)),
            ("part_right", u32s_to_json(&self.part_right)),
            ("part_next", bools_to_json(&self.part_next)),
            ("entry_off", u32s_to_json(&self.entries.off)),
            ("entry_state", u32s_to_json(&self.entries.state)),
            ("trans_off", u32s_to_json(&self.trans_off)),
            ("trans_to", u32s_to_json(&self.trans_to)),
            ("trans_guard", u32s_to_json(&self.trans_guard)),
            (
                "out_kind",
                JsonValue::Arr(
                    self.out_kind
                        .iter()
                        .map(|&v| JsonValue::UInt(u64::from(v)))
                        .collect(),
                ),
            ),
            ("out_slope", self.out_slope.to_json()),
            ("out_offset", self.out_offset.to_json()),
            ("initial", JsonValue::UInt(u64::from(self.initial_state))),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        let m = v.usize_field("states")?;
        let k = v.usize_field("symbols")?;
        let props = v.usize_field("props")?;
        if m == 0 {
            return Err(PersistError::schema("compiled model declares zero states"));
        }
        if k == 0 {
            return Err(PersistError::schema("compiled model declares zero symbols"));
        }

        let at = f64s_field(v, "at")?;
        let bt = f64s_field(v, "bt")?;
        let emission = f64s_field(v, "emission")?;
        let emission_ok = bools_field(v, "emission_ok")?;
        expect_len("at", at.len(), m * m)?;
        expect_len("bt", bt.len(), k * m)?;
        expect_len("emission", emission.len(), k * m)?;
        expect_len("emission_ok", emission_ok.len(), k)?;

        // The same stochastic-row checks Hmm's persistence applies to the
        // untransposed matrices.
        for i in 0..m {
            if !is_distribution((0..m).map(|j| at[j * m + i])) {
                return Err(PersistError::schema(format!(
                    "compiled transition row {i} is not a probability distribution"
                )));
            }
        }
        for j in 0..m {
            if !is_distribution((0..k).map(|s| bt[s * m + j])) {
                return Err(PersistError::schema(format!(
                    "compiled emission row {j} is not a probability distribution"
                )));
            }
        }
        for s in 0..k {
            let row = &emission[s * m..(s + 1) * m];
            if emission_ok[s] {
                if !is_distribution(row.iter().copied()) {
                    return Err(PersistError::schema(format!(
                        "compiled resync belief for symbol {s} is not a probability distribution"
                    )));
                }
            } else if row.iter().any(|&p| p != 0.0) {
                return Err(PersistError::schema(format!(
                    "compiled resync belief for symbol {s} is flagged invalid but non-zero"
                )));
            }
        }

        let chain_off = u32s_field(v, "chain_off")?;
        let part_off = u32s_field(v, "part_off")?;
        let part_left = u32s_field(v, "part_left")?;
        let part_right = u32s_field(v, "part_right")?;
        let part_next = bools_field(v, "part_next")?;
        if chain_off.len() != m + 1 {
            return Err(PersistError::schema(format!(
                "compiled chain offsets have {} entries for {m} declared states (want {})",
                chain_off.len(),
                m + 1
            )));
        }
        let chains = *chain_off.last().expect("length checked") as usize;
        expect_offsets("chain_off", &chain_off, m + 1, true, chains)?;
        let parts = part_left.len();
        expect_offsets("part_off", &part_off, chains + 1, true, parts)?;
        expect_len("part_right", part_right.len(), parts)?;
        expect_len("part_next", part_next.len(), parts)?;

        let entry_off = u32s_field(v, "entry_off")?;
        let entry_state = u32s_field(v, "entry_state")?;
        expect_offsets("entry_off", &entry_off, props + 1, false, entry_state.len())?;
        expect_in_range("entry_state", &entry_state, m)?;
        // The entry table is an acceleration of the chain table; it must
        // equal the one compilation derives, or resynchronisation would
        // silently diverge from the interpreted walker. The declared width
        // bounds the derivation's buckets.
        for c in 0..chains {
            let entry = part_left[part_off[c] as usize] as usize;
            if entry >= props {
                return Err(PersistError::schema(format!(
                    "chain {c} enters on proposition {entry}, outside the declared {props}"
                )));
            }
        }
        let entries = EntryTable::derive(&chain_off, &part_off, &part_left);
        if entries.off != entry_off || entries.state != entry_state {
            return Err(PersistError::schema(
                "compiled entry table is inconsistent with the chain table",
            ));
        }

        let trans_off = u32s_field(v, "trans_off")?;
        let trans_to = u32s_field(v, "trans_to")?;
        let trans_guard = u32s_field(v, "trans_guard")?;
        expect_offsets("trans_off", &trans_off, m + 1, false, trans_to.len())?;
        expect_len("trans_guard", trans_guard.len(), trans_to.len())?;
        expect_in_range("trans_to", &trans_to, m)?;

        let out_kind_raw = u32s_field(v, "out_kind")?;
        expect_len("out_kind", out_kind_raw.len(), m)?;
        let out_kind: Vec<u8> = out_kind_raw
            .iter()
            .map(|&x| {
                if x <= 1 {
                    Ok(x as u8)
                } else {
                    Err(PersistError::schema(format!(
                        "compiled output kind {x} is neither constant (0) nor regression (1)"
                    )))
                }
            })
            .collect::<Result<_, _>>()?;
        let out_slope = f64s_field(v, "out_slope")?;
        let out_offset = f64s_field(v, "out_offset")?;
        expect_len("out_slope", out_slope.len(), m)?;
        expect_len("out_offset", out_offset.len(), m)?;

        let initial = v.usize_field("initial")?;
        if initial >= m {
            return Err(PersistError::schema(format!(
                "compiled initial state {initial} out of range ({m} states)"
            )));
        }

        Ok(CompiledModel {
            m,
            k,
            at,
            bt,
            emission,
            emission_ok,
            chain_off,
            part_off,
            part_left,
            part_right,
            part_next,
            entries,
            trans_off,
            trans_to,
            trans_guard,
            out_kind,
            out_slope,
            out_offset,
            initial_state: initial as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_core::{generate_psm, join, MergePolicy, Psm};
    use psm_hmm::{build_hmm, Hmm, HmmSimulator};
    use psm_mining::{PropositionId, PropositionTrace};
    use psm_trace::PowerTrace;

    fn trained_pair() -> (Psm, Hmm) {
        let props = [0u32, 0, 0, 1, 1, 2, 0, 0, 0, 1, 1, 2, 0, 0];
        let power: PowerTrace = props.iter().map(|&p| 2.0 + 3.0 * p as f64).collect();
        let psm = generate_psm(&PropositionTrace::from_indices(&props), &power, 0)
            .expect("training trace generates a PSM");
        let joined = join(&[psm], &MergePolicy::default());
        let hmm = build_hmm(&joined, 3);
        (joined, hmm)
    }

    fn obs(seq: &[u32]) -> Vec<Option<PropositionId>> {
        seq.iter()
            .map(|&i| Some(PropositionId::from_index(i)))
            .collect()
    }

    #[test]
    fn compiled_model_round_trips_bit_identically() {
        let (psm, hmm) = trained_pair();
        let compiled = CompiledModel::compile(&psm, &hmm).unwrap();
        let text = compiled.to_json().render();
        let back = CompiledModel::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().render(), text, "canonical form is stable");

        let o = obs(&[0, 0, 1, 1, 2, 0, 0, 1, 2, 0]);
        let h = vec![1u32; o.len()];
        let a = compiled.run(&o, &h);
        let b = back.run(&o, &h);
        assert_eq!(a, b, "reloaded model behaves identically");
        let interp = HmmSimulator::new(&psm, hmm).run(&o, &h);
        for (x, y) in a.estimate.iter().zip(interp.estimate.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "compiled matches interpreted");
        }
    }

    #[test]
    fn length_lies_are_schema_errors_not_panics() {
        let (psm, hmm) = trained_pair();
        let compiled = CompiledModel::compile(&psm, &hmm).unwrap();

        // Truncate one probability from the transition table.
        let mut v = compiled.to_json();
        if let JsonValue::Obj(fields) = &mut v {
            for (name, value) in fields.iter_mut() {
                if name == "at" {
                    if let JsonValue::Arr(items) = value {
                        items.pop();
                    }
                }
            }
        }
        let err = CompiledModel::from_json(&v).unwrap_err();
        assert!(
            matches!(&err, PersistError::Schema(msg) if msg.contains("'at'")),
            "truncated table reports a structured schema error, got: {err}"
        );

        // Lie about the state count: every per-state table length disagrees.
        let mut v = compiled.to_json();
        if let JsonValue::Obj(fields) = &mut v {
            for (name, value) in fields.iter_mut() {
                if name == "states" {
                    *value = JsonValue::UInt(compiled.num_states() as u64 + 1);
                }
            }
        }
        assert!(
            matches!(
                CompiledModel::from_json(&v).unwrap_err(),
                PersistError::Schema(_)
            ),
            "declared/actual state-count mismatch is a schema error"
        );
    }

    #[test]
    fn corrupted_entry_table_is_rejected() {
        let (psm, hmm) = trained_pair();
        let compiled = CompiledModel::compile(&psm, &hmm).unwrap();
        let mut v = compiled.to_json();
        if let JsonValue::Obj(fields) = &mut v {
            for (name, value) in fields.iter_mut() {
                if name == "entry_state" {
                    if let JsonValue::Arr(items) = value {
                        items.reverse();
                    }
                }
            }
        }
        let err = CompiledModel::from_json(&v).unwrap_err();
        assert!(
            matches!(&err, PersistError::Schema(msg) if msg.contains("entry table")),
            "swapped resync slots are caught, got: {err}"
        );
    }
}

//! Trace serialisation: CSV for functional/power traces, VCD for waveform
//! viewers.
//!
//! The formats are intentionally simple — they exist so the examples and
//! benchmark binaries can dump their training traces for inspection with
//! standard EDA tooling (GTKWave reads the VCD output) and spreadsheets.

use crate::{FunctionalTrace, PowerTrace, TraceError};
use std::io::{BufRead, Write};

/// Writes a functional trace as CSV: a header of `time,<signal>…` followed
/// by one row per instant with hex-formatted values.
///
/// # Errors
///
/// Propagates I/O failures as [`TraceError::Io`].
///
/// # Examples
///
/// ```
/// use psm_trace::{Bits, Direction, FunctionalTrace, SignalSet, write_functional_csv};
///
/// let mut s = SignalSet::new();
/// s.push("en", 1, Direction::Input)?;
/// let mut t = FunctionalTrace::new(s);
/// t.push_cycle(vec![Bits::from_bool(true)])?;
///
/// let mut out = Vec::new();
/// write_functional_csv(&t, &mut out)?;
/// let text = String::from_utf8(out).expect("csv is utf-8");
/// assert_eq!(text, "time,en\n0,1'h1\n");
/// # Ok::<(), psm_trace::TraceError>(())
/// ```
pub fn write_functional_csv<W: Write>(
    trace: &FunctionalTrace,
    writer: &mut W,
) -> Result<(), TraceError> {
    write!(writer, "time")?;
    for (_, decl) in trace.signals().iter() {
        write!(writer, ",{}", decl.name())?;
    }
    writeln!(writer)?;
    for (t, cycle) in trace.iter().enumerate() {
        write!(writer, "{t}")?;
        for value in cycle.iter() {
            write!(writer, ",{value}")?;
        }
        writeln!(writer)?;
    }
    Ok(())
}

/// Reads a functional trace previously written by
/// [`write_functional_csv`]; `signals` must describe the expected
/// interface (names are checked against the header).
///
/// # Errors
///
/// * [`TraceError::Io`] on read failure;
/// * [`TraceError::Parse`] when the header or a record is malformed.
///
/// # Examples
///
/// ```
/// use psm_trace::{read_functional_csv, write_functional_csv};
/// use psm_trace::{Bits, Direction, FunctionalTrace, SignalSet};
///
/// let mut s = SignalSet::new();
/// s.push("en", 1, Direction::Input)?;
/// let mut t = FunctionalTrace::new(s.clone());
/// t.push_cycle(vec![Bits::from_bool(true)])?;
/// let mut csv = Vec::new();
/// write_functional_csv(&t, &mut csv)?;
/// let back = read_functional_csv(s, csv.as_slice())?;
/// assert_eq!(back, t);
/// # Ok::<(), psm_trace::TraceError>(())
/// ```
pub fn read_functional_csv<R: BufRead>(
    signals: crate::SignalSet,
    reader: R,
) -> Result<FunctionalTrace, TraceError> {
    let mut trace = FunctionalTrace::new(signals);
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if i == 0 {
            let mut fields = line.split(',');
            if fields.next() != Some("time") {
                return Err(TraceError::Parse {
                    line: 1,
                    message: "expected a `time` column first".into(),
                });
            }
            let names: Vec<&str> = fields.collect();
            let expected: Vec<&str> = trace.signals().iter().map(|(_, d)| d.name()).collect();
            if names != expected {
                return Err(TraceError::Parse {
                    line: 1,
                    message: format!("header {names:?} does not match interface {expected:?}"),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let _time = fields.next();
        let mut cycle = Vec::new();
        for field in fields {
            cycle.push(crate::Bits::from_verilog_str(field.trim()).map_err(|e| {
                TraceError::Parse {
                    line: i + 1,
                    message: e.to_string(),
                }
            })?);
        }
        trace.push_cycle(cycle)?;
    }
    Ok(trace)
}

/// Writes a power trace as CSV with a `time,power_mw` header.
///
/// # Errors
///
/// Propagates I/O failures as [`TraceError::Io`].
pub fn write_power_csv<W: Write>(trace: &PowerTrace, writer: &mut W) -> Result<(), TraceError> {
    writeln!(writer, "time,power_mw")?;
    for (t, p) in trace.iter().enumerate() {
        writeln!(writer, "{t},{p}")?;
    }
    Ok(())
}

/// Reads a power trace previously written by [`write_power_csv`].
///
/// # Errors
///
/// * [`TraceError::Io`] on read failure;
/// * [`TraceError::Parse`] when a record is malformed.
pub fn read_power_csv<R: BufRead>(reader: R) -> Result<PowerTrace, TraceError> {
    let mut trace = PowerTrace::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if i == 0 {
            if line.trim() != "time,power_mw" {
                return Err(TraceError::Parse {
                    line: 1,
                    message: format!("expected header `time,power_mw`, got `{line}`"),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let _time = fields.next();
        let power = fields.next().ok_or_else(|| TraceError::Parse {
            line: i + 1,
            message: "missing power field".into(),
        })?;
        let value: f64 = power.trim().parse().map_err(|e| TraceError::Parse {
            line: i + 1,
            message: format!("bad power value `{power}`: {e}"),
        })?;
        trace.push(value);
    }
    Ok(trace)
}

/// Writes a functional trace as a minimal IEEE 1364 VCD file (one clock tick
/// per instant), loadable in GTKWave and friends.
///
/// # Errors
///
/// Propagates I/O failures as [`TraceError::Io`].
pub fn write_vcd<W: Write>(
    module: &str,
    trace: &FunctionalTrace,
    writer: &mut W,
) -> Result<(), TraceError> {
    writeln!(writer, "$date psmgen trace export $end")?;
    writeln!(writer, "$timescale 1ns $end")?;
    writeln!(writer, "$scope module {module} $end")?;
    // VCD identifier codes: printable ASCII starting at '!'.
    let code = |i: usize| -> String {
        let mut i = i;
        let mut s = String::new();
        loop {
            s.push((b'!' + (i % 94) as u8) as char);
            i /= 94;
            if i == 0 {
                break;
            }
        }
        s
    };
    for (id, decl) in trace.signals().iter() {
        writeln!(
            writer,
            "$var wire {} {} {} $end",
            decl.width(),
            code(id.index()),
            decl.name()
        )?;
    }
    writeln!(writer, "$upscope $end")?;
    writeln!(writer, "$enddefinitions $end")?;
    let mut prev: Option<crate::Row<'_>> = None;
    for (t, cycle) in trace.iter().enumerate() {
        writeln!(writer, "#{t}")?;
        for (id, _) in trace.signals().iter() {
            let i = id.index();
            let changed = prev.is_none_or(|p| p.words(id) != cycle.words(id));
            if !changed {
                continue;
            }
            let value = cycle.bits(id);
            if value.width() == 1 {
                writeln!(writer, "{}{}", if value.bit(0) { 1 } else { 0 }, code(i))?;
            } else {
                write!(writer, "b")?;
                for b in (0..value.width()).rev() {
                    write!(writer, "{}", if value.bit(b) { 1 } else { 0 })?;
                }
                writeln!(writer, " {}", code(i))?;
            }
        }
        prev = Some(cycle);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bits, Direction, SignalSet};

    fn sample_trace() -> FunctionalTrace {
        let mut s = SignalSet::new();
        s.push("en", 1, Direction::Input).unwrap();
        s.push("data", 4, Direction::Output).unwrap();
        let mut t = FunctionalTrace::new(s);
        t.push_cycle(vec![Bits::from_bool(true), Bits::from_u64(0xA, 4)])
            .unwrap();
        t.push_cycle(vec![Bits::from_bool(true), Bits::from_u64(0x3, 4)])
            .unwrap();
        t
    }

    #[test]
    fn functional_csv_shape() {
        let mut out = Vec::new();
        write_functional_csv(&sample_trace(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "time,en,data");
        assert_eq!(lines[1], "0,1'h1,4'ha");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn power_csv_round_trip() {
        let t = PowerTrace::from_samples(vec![1.25, 3.5, 0.0]);
        let mut out = Vec::new();
        write_power_csv(&t, &mut out).unwrap();
        let read = read_power_csv(out.as_slice()).unwrap();
        assert_eq!(read, t);
    }

    #[test]
    fn power_csv_rejects_bad_header() {
        let r = read_power_csv("nope\n1,2\n".as_bytes());
        assert!(matches!(r, Err(TraceError::Parse { line: 1, .. })));
    }

    #[test]
    fn power_csv_rejects_bad_value() {
        let r = read_power_csv("time,power_mw\n0,abc\n".as_bytes());
        assert!(matches!(r, Err(TraceError::Parse { line: 2, .. })));
    }

    #[test]
    fn vcd_contains_declarations_and_changes() {
        let mut out = Vec::new();
        write_vcd("dut", &sample_trace(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("$var wire 1 ! en $end"));
        assert!(text.contains("$var wire 4 \" data $end"));
        assert!(text.contains("#0"));
        assert!(text.contains("b1010 \""));
        // `en` does not change at t=1, so no second `1!` entry after #1.
        let after_t1 = text.split("#1").nth(1).unwrap();
        assert!(!after_t1.contains("1!"));
        assert!(after_t1.contains("b0011 \""));
    }
}

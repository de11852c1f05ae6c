//! Compact little-endian binary encoding of functional traces.
//!
//! The `psmd/v2` wire protocol replaces JSON with this codec for bulk
//! numeric data: a trace travels as an interned-signal **dictionary
//! frame** (tag [`TAG_DICT`]) followed by one or more **cycles frames**
//! (tag [`TAG_CYCLES`]) carrying raw little-endian signal words. The two
//! frame kinds are independently encodable so a streaming session can
//! send its dictionary once at `STREAM_OPEN` and ship cycles-only chunks
//! afterwards.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header       := "PSTB" version:u8
//! dict frame   := 0x01 count:u32 { dir:u8 width:u32 name_len:u16 name }*
//! cycles frame := 0x02 count:u32 { cycle }*          (one entry per cycle)
//! cycle        := per declared signal, width.div_ceil(64) words of u64
//! ```
//!
//! A cycle on the wire is exactly one row of a [`FunctionalTrace`]'s
//! word buffer, so encoding writes the buffer as it is and decoding is a
//! bounds-checked copy: one reservation per frame, no allocation per
//! cycle or per signal. Wire bits above a signal's width are cleared on
//! decode, so such a word decodes to the same trace as the clean one.
//!
//! Decoding is strict: every length is bounds-checked before any
//! allocation sized from it, unknown tags and malformed names are
//! structured errors (never panics), and [`decode_trace`] rejects
//! trailing bytes.
//!
//! # Examples
//!
//! ```
//! use psm_trace::binary::{decode_trace, encode_trace};
//! use psm_trace::{Bits, Direction, FunctionalTrace, SignalSet};
//!
//! let mut signals = SignalSet::new();
//! signals.push("a", 8, Direction::Input)?;
//! signals.push("y", 16, Direction::Output)?;
//! let mut trace = FunctionalTrace::new(signals);
//! trace.push_cycle(vec![Bits::from_u64(0x5a, 8), Bits::from_u64(0x1234, 16)])?;
//!
//! let bytes = encode_trace(&trace);
//! let back = decode_trace(&bytes).unwrap();
//! assert_eq!(back.len(), 1);
//! assert_eq!(back.cycle(0), trace.cycle(0));
//! # Ok::<(), psm_trace::TraceError>(())
//! ```

use crate::{Direction, FunctionalTrace, SignalSet, TraceError};
use std::error::Error;
use std::fmt;

/// Magic bytes opening every binary trace payload ("PSm Trace Binary").
pub const MAGIC: [u8; 4] = *b"PSTB";
/// Current codec version, written after [`MAGIC`].
pub const VERSION: u8 = 1;
/// Frame tag of the interned-signal dictionary.
pub const TAG_DICT: u8 = 0x01;
/// Frame tag of a block of raw cycle words.
pub const TAG_CYCLES: u8 = 0x02;

/// Upper bound on declared signals per dictionary (sanity limit).
pub const MAX_SIGNALS: u32 = 1 << 16;
/// Upper bound on a single signal's width in bits (sanity limit).
pub const MAX_SIGNAL_WIDTH: u32 = 1 << 20;

/// Structured decoding failures: what was malformed and where.
#[derive(Debug)]
#[non_exhaustive]
pub enum BinCodecError {
    /// The payload did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The payload's codec version is newer than this decoder.
    UnsupportedVersion(u8),
    /// A frame opened with an unknown or out-of-place tag.
    UnexpectedTag {
        /// Tag the decoder was positioned to read.
        expected: u8,
        /// Tag actually found.
        found: u8,
    },
    /// The payload ended before a declared length was satisfied.
    Truncated {
        /// Byte offset at which more input was needed.
        offset: usize,
        /// Bytes the decoder needed at that offset.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// A declared count exceeded a codec sanity limit.
    Limit {
        /// Which quantity overflowed.
        what: &'static str,
        /// Declared value.
        value: u64,
        /// Maximum the codec accepts.
        max: u64,
    },
    /// A signal name was not valid UTF-8.
    BadName {
        /// Byte offset of the offending name.
        offset: usize,
    },
    /// A direction byte was neither 0 (input) nor 1 (output).
    BadDirection(u8),
    /// Bytes remained after the final expected frame.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
    },
    /// The decoded declarations violated trace invariants
    /// (duplicate name, zero width, …).
    Trace(TraceError),
}

impl fmt::Display for BinCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinCodecError::BadMagic(m) => {
                write!(f, "binary trace payload does not start with PSTB (got {m:02x?})")
            }
            BinCodecError::UnsupportedVersion(v) => {
                write!(f, "binary trace codec version {v} is not supported (max {VERSION})")
            }
            BinCodecError::UnexpectedTag { expected, found } => {
                write!(f, "expected frame tag {expected:#04x}, found {found:#04x}")
            }
            BinCodecError::Truncated { offset, need, have } => write!(
                f,
                "binary trace payload truncated at byte {offset}: need {need} more byte(s), have {have}"
            ),
            BinCodecError::Limit { what, value, max } => {
                write!(f, "{what} {value} exceeds the codec limit of {max}")
            }
            BinCodecError::BadName { offset } => {
                write!(f, "signal name at byte {offset} is not valid UTF-8")
            }
            BinCodecError::BadDirection(d) => {
                write!(f, "direction byte {d} is neither 0 (input) nor 1 (output)")
            }
            BinCodecError::TrailingBytes { offset } => {
                write!(f, "unexpected trailing bytes after offset {offset}")
            }
            BinCodecError::Trace(e) => write!(f, "decoded trace is invalid: {e}"),
        }
    }
}

impl Error for BinCodecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BinCodecError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for BinCodecError {
    fn from(e: TraceError) -> Self {
        BinCodecError::Trace(e)
    }
}

/// Bounds-checked little-endian cursor over a binary payload.
///
/// Shared with the wire protocol so frame parsers report the same
/// structured [`BinCodecError::Truncated`] offsets the codec does.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Positions a cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset from the start of the payload.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Consumes exactly `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], BinCodecError> {
        if self.remaining() < n {
            return Err(BinCodecError::Truncated {
                offset: self.pos,
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, BinCodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Consumes a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, BinCodecError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Consumes a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, BinCodecError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consumes a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, BinCodecError> {
        let b = self.bytes(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }
}

/// Appends the codec header ([`MAGIC`] + [`VERSION`]) to `out`.
pub fn write_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
}

/// Consumes and validates the codec header.
pub fn read_header(r: &mut Reader<'_>) -> Result<(), BinCodecError> {
    let m = r.bytes(4)?;
    if m != MAGIC {
        return Err(BinCodecError::BadMagic([m[0], m[1], m[2], m[3]]));
    }
    let v = r.u8()?;
    if v == 0 || v > VERSION {
        return Err(BinCodecError::UnsupportedVersion(v));
    }
    Ok(())
}

/// Appends a dictionary frame describing `signals` to `out`.
pub fn write_dict(signals: &SignalSet, out: &mut Vec<u8>) {
    out.push(TAG_DICT);
    out.extend_from_slice(&(signals.len() as u32).to_le_bytes());
    for (_, decl) in signals.iter() {
        out.push(match decl.direction() {
            Direction::Input => 0,
            Direction::Output => 1,
        });
        out.extend_from_slice(&(decl.width() as u32).to_le_bytes());
        let name = decl.name().as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
    }
}

/// Consumes a dictionary frame, rebuilding its [`SignalSet`].
///
/// Declaration-level invariants (unique names, non-zero widths) are
/// enforced by [`SignalSet::push`] and surface as
/// [`BinCodecError::Trace`].
pub fn read_dict(r: &mut Reader<'_>) -> Result<SignalSet, BinCodecError> {
    let tag = r.u8()?;
    if tag != TAG_DICT {
        return Err(BinCodecError::UnexpectedTag {
            expected: TAG_DICT,
            found: tag,
        });
    }
    let count = r.u32()?;
    if count > MAX_SIGNALS {
        return Err(BinCodecError::Limit {
            what: "signal count",
            value: count as u64,
            max: MAX_SIGNALS as u64,
        });
    }
    let mut signals = SignalSet::new();
    for _ in 0..count {
        let dir = match r.u8()? {
            0 => Direction::Input,
            1 => Direction::Output,
            other => return Err(BinCodecError::BadDirection(other)),
        };
        let width = r.u32()?;
        if width > MAX_SIGNAL_WIDTH {
            return Err(BinCodecError::Limit {
                what: "signal width",
                value: width as u64,
                max: MAX_SIGNAL_WIDTH as u64,
            });
        }
        let name_len = r.u16()? as usize;
        let name_offset = r.offset();
        let raw = r.bytes(name_len)?;
        let name = std::str::from_utf8(raw).map_err(|_| BinCodecError::BadName {
            offset: name_offset,
        })?;
        signals.push(name, width as usize, dir)?;
    }
    Ok(signals)
}

/// Appends a cycles frame carrying every cycle of `trace` to `out`.
///
/// The frame body is the trace's word buffer as it is stored, one
/// little-endian `u64` after another.
pub fn write_cycles(trace: &FunctionalTrace, out: &mut Vec<u8>) {
    out.push(TAG_CYCLES);
    out.extend_from_slice(&(trace.len() as u32).to_le_bytes());
    out.reserve(trace.as_words().len() * 8);
    for w in trace.as_words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Consumes one cycles frame, appending its cycles to `trace` (whose
/// signal set defines the expected word layout). Returns the number of
/// cycles appended.
///
/// The whole frame's size is validated against the remaining input
/// before anything is allocated, so a hostile cycle count cannot trigger
/// oversized allocations. The words are then appended to the trace's
/// buffer in one reserved copy, with the bits above each signal's width
/// cleared.
pub fn read_cycles_into(
    r: &mut Reader<'_>,
    trace: &mut FunctionalTrace,
) -> Result<usize, BinCodecError> {
    let tag = r.u8()?;
    if tag != TAG_CYCLES {
        return Err(BinCodecError::UnexpectedTag {
            expected: TAG_CYCLES,
            found: tag,
        });
    }
    let count = r.u32()? as usize;
    let wpc = trace.signals().words_per_cycle();
    // A zero-signal dictionary makes every cycle free on the wire, so
    // the byte-budget check below would accept any count. Cycles against
    // an empty dictionary carry no information — reject them outright.
    if wpc == 0 && count > 0 {
        return Err(BinCodecError::Limit {
            what: "cycle count for an empty signal dictionary",
            value: count as u64,
            max: 0,
        });
    }
    let need = (count as u64).saturating_mul(wpc as u64).saturating_mul(8);
    if need > r.remaining() as u64 {
        return Err(BinCodecError::Truncated {
            offset: r.offset(),
            need: need as usize,
            have: r.remaining(),
        });
    }
    let body = r.bytes(need as usize)?;
    trace.extend_rows_with(count, |rows| {
        for (word, b) in rows.iter_mut().zip(body.chunks_exact(8)) {
            *word = u64::from_le_bytes(b.try_into().expect("chunks_exact yields 8 bytes"));
        }
    });
    Ok(count)
}

/// Encodes a complete trace: header, dictionary, one cycles frame.
pub fn encode_trace(trace: &FunctionalTrace) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 1 + 16 + trace.as_words().len() * 8);
    write_header(&mut out);
    write_dict(trace.signals(), &mut out);
    write_cycles(trace, &mut out);
    out
}

/// Decodes a payload produced by [`encode_trace`], rejecting trailing
/// bytes.
pub fn decode_trace(buf: &[u8]) -> Result<FunctionalTrace, BinCodecError> {
    let mut r = Reader::new(buf);
    read_header(&mut r)?;
    let signals = read_dict(&mut r)?;
    let mut trace = FunctionalTrace::new(signals);
    while !r.is_empty() {
        read_cycles_into(&mut r, &mut trace)?;
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bits;

    fn sample_trace(cycles: usize) -> FunctionalTrace {
        let mut signals = SignalSet::new();
        signals.push("a", 8, Direction::Input).unwrap();
        signals.push("wide", 130, Direction::Input).unwrap();
        signals.push("y", 16, Direction::Output).unwrap();
        let mut trace = FunctionalTrace::new(signals);
        for t in 0..cycles {
            let mut wide = Bits::zero(130);
            wide.set_bit(t % 130, true);
            wide.set_bit(129, t % 2 == 0);
            trace
                .push_cycle(vec![
                    Bits::from_u64((t as u64).wrapping_mul(37) & 0xff, 8),
                    wide,
                    Bits::from_u64((t as u64).wrapping_mul(101) & 0xffff, 16),
                ])
                .unwrap();
        }
        trace
    }

    #[test]
    fn round_trip_preserves_every_cycle_and_declaration() {
        let trace = sample_trace(17);
        let bytes = encode_trace(&trace);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back.len(), trace.len());
        for (i, ((_, a), (_, b))) in back
            .signals()
            .iter()
            .zip(trace.signals().iter())
            .enumerate()
        {
            assert_eq!(a.name(), b.name(), "signal {i}");
            assert_eq!(a.width(), b.width(), "signal {i}");
            assert_eq!(a.direction(), b.direction(), "signal {i}");
        }
        for t in 0..trace.len() {
            assert_eq!(back.cycle(t), trace.cycle(t), "cycle {t}");
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = sample_trace(0);
        let back = decode_trace(&encode_trace(&trace)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.signals().len(), 3);
    }

    #[test]
    fn dict_and_cycles_encode_independently() {
        let trace = sample_trace(5);
        // Session-style: dictionary once, then two cycles-only chunks.
        let mut dict = Vec::new();
        write_dict(trace.signals(), &mut dict);
        let mut r = Reader::new(&dict);
        let signals = read_dict(&mut r).unwrap();
        let mut rebuilt = FunctionalTrace::new(signals);

        let halves = [sample_trace(2), {
            let mut t = FunctionalTrace::new(trace.signals().clone());
            for i in 2..5 {
                t.push_cycle(trace.cycle(i).to_vec()).unwrap();
            }
            t
        }];
        for half in &halves {
            let mut chunk = Vec::new();
            write_cycles(half, &mut chunk);
            let mut r = Reader::new(&chunk);
            read_cycles_into(&mut r, &mut rebuilt).unwrap();
            assert!(r.is_empty());
        }
        assert_eq!(rebuilt.len(), 5);
        for t in 0..5 {
            assert_eq!(rebuilt.cycle(t), trace.cycle(t));
        }
    }

    #[test]
    fn truncation_at_every_prefix_is_a_structured_error() {
        let bytes = encode_trace(&sample_trace(3));
        for cut in 0..bytes.len() {
            // Any prefix must either fail loudly or — when the cut lands
            // exactly on a frame boundary — decode to a shorter trace;
            // it must never panic or produce all three cycles.
            match decode_trace(&bytes[..cut]) {
                Ok(partial) => assert!(partial.len() < 3, "cut at {cut}"),
                Err(e) => assert!(!e.to_string().is_empty(), "cut at {cut}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = encode_trace(&sample_trace(1));
        bytes[0] = b'X';
        assert!(matches!(
            decode_trace(&bytes).unwrap_err(),
            BinCodecError::BadMagic(_)
        ));
        let mut bytes = encode_trace(&sample_trace(1));
        bytes[4] = 200;
        assert!(matches!(
            decode_trace(&bytes).unwrap_err(),
            BinCodecError::UnsupportedVersion(200)
        ));
    }

    #[test]
    fn unknown_tags_and_hostile_counts_are_rejected() {
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        bytes.push(0x7f); // not a dict tag
        assert!(matches!(
            decode_trace(&bytes).unwrap_err(),
            BinCodecError::UnexpectedTag { found: 0x7f, .. }
        ));

        // A dictionary declaring 2^31 signals must fail on the limit,
        // not attempt the allocation.
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        bytes.push(TAG_DICT);
        bytes.extend_from_slice(&(1u32 << 31).to_le_bytes());
        assert!(matches!(
            decode_trace(&bytes).unwrap_err(),
            BinCodecError::Limit {
                what: "signal count",
                ..
            }
        ));

        // A cycles frame claiming 2^31 cycles with a near-empty body
        // must fail the up-front size check.
        let trace = sample_trace(1);
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        write_dict(trace.signals(), &mut bytes);
        bytes.push(TAG_CYCLES);
        bytes.extend_from_slice(&(1u32 << 31).to_le_bytes());
        assert!(matches!(
            decode_trace(&bytes).unwrap_err(),
            BinCodecError::Truncated { .. }
        ));

        // A zero-signal dictionary must not let a cycles frame smuggle
        // an arbitrary count past the byte-budget check (each cycle
        // would be free on the wire but allocated on the heap).
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        write_dict(&SignalSet::new(), &mut bytes);
        bytes.push(TAG_CYCLES);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_trace(&bytes).unwrap_err(),
            BinCodecError::Limit {
                what: "cycle count for an empty signal dictionary",
                ..
            }
        ));

        // A zero-count frame against the empty dictionary stays legal.
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        write_dict(&SignalSet::new(), &mut bytes);
        bytes.push(TAG_CYCLES);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_trace(&bytes).unwrap().is_empty());
    }

    #[test]
    fn invalid_declarations_surface_trace_errors() {
        // Duplicate signal name.
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        bytes.push(TAG_DICT);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            bytes.push(0);
            bytes.extend_from_slice(&8u32.to_le_bytes());
            bytes.extend_from_slice(&3u16.to_le_bytes());
            bytes.extend_from_slice(b"clk");
        }
        assert!(matches!(
            decode_trace(&bytes).unwrap_err(),
            BinCodecError::Trace(TraceError::DuplicateSignal(_))
        ));

        // Invalid UTF-8 name.
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        bytes.push(TAG_DICT);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            decode_trace(&bytes).unwrap_err(),
            BinCodecError::BadName { .. }
        ));

        // Bad direction byte.
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        bytes.push(TAG_DICT);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(9);
        assert!(matches!(
            decode_trace(&bytes).unwrap_err(),
            BinCodecError::BadDirection(9)
        ));
    }

    #[test]
    fn binary_is_denser_than_json() {
        let trace = sample_trace(64);
        let bin = encode_trace(&trace).len();
        let json = {
            use psm_persist::Persist;
            trace.to_json().render().len()
        };
        assert!(
            bin * 2 < json,
            "binary ({bin} B) should be well under half of JSON ({json} B)"
        );
    }
}

//! Hardening of the binary trace decoder: dirty high bits are cleared,
//! hostile sizes are refused before anything is allocated from them, and
//! no byte-mutated payload panics the decoder.

use psm_prng::Prng;
use psm_trace::binary::{
    decode_trace, encode_trace, write_dict, write_header, MAX_SIGNAL_WIDTH, TAG_CYCLES,
};
use psm_trace::{Bits, Direction, FunctionalTrace, SignalSet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// Inputs and outputs interleaved, with widths on both sides of word
/// boundaries.
fn signals() -> SignalSet {
    let mut s = SignalSet::new();
    s.push("a", 3, Direction::Input).unwrap();
    s.push("y", 70, Direction::Output).unwrap();
    s.push("b", 64, Direction::Input).unwrap();
    s.push("z", 1, Direction::Output).unwrap();
    s
}

fn random_trace(rng: &mut Prng, cycles: usize) -> FunctionalTrace {
    let mut trace = FunctionalTrace::new(signals());
    for _ in 0..cycles {
        let row = trace
            .signals()
            .iter()
            .map(|(_, d)| {
                let words: Vec<u64> = (0..d.width().div_ceil(64))
                    .map(|_| rng.next_u64())
                    .collect();
                Bits::from_words(&words, d.width())
            })
            .collect();
        trace.push_cycle(row).unwrap();
    }
    trace
}

#[test]
fn wire_bits_above_a_width_decode_like_the_clean_word() {
    let mut rng = Prng::seed_from_u64(0xDEC0_0001);
    let clean = random_trace(&mut rng, 5);
    let bytes = encode_trace(&clean);
    // The cycles frame ends the payload with 5 rows of 5 words; dirty the
    // unused high bits of a (word 0, bits 3..), y's second word (word 2,
    // bits 6..) and z (word 4, bits 1..).
    let body = bytes.len() - 5 * 5 * 8;
    let mut dirty = bytes.clone();
    for t in 0..5 {
        for (word, unused) in [(0, !0b111u64), (2, !0b11_1111), (4, !1)] {
            let at = body + (t * 5 + word) * 8;
            let w = u64::from_le_bytes(dirty[at..at + 8].try_into().unwrap()) | unused;
            dirty[at..at + 8].copy_from_slice(&w.to_le_bytes());
        }
    }
    assert_ne!(dirty, bytes);
    let decoded = decode_trace(&dirty).unwrap();
    assert_eq!(decoded, clean);
    assert_eq!(encode_trace(&decoded), bytes);
}

#[test]
fn hostile_cycle_count_is_rejected_before_any_allocation() {
    // A dictionary whose rows take 5 words, then a cycles frame claiming
    // 2^32 - 1 cycles (about 160 GiB of rows) with an 8-byte body.
    let mut bytes = Vec::new();
    write_header(&mut bytes);
    write_dict(&signals(), &mut bytes);
    bytes.push(TAG_CYCLES);
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0; 8]);
    assert_small_failure(&bytes);

    // Four thousand signals of the largest width declare rows of 2^26
    // words (512 MiB); the dictionary itself must cost only what its
    // declarations do, and one claimed cycle must fail the size check.
    let mut wide = SignalSet::new();
    for k in 0..4_000 {
        wide.push(format!("s{k}"), MAX_SIGNAL_WIDTH as usize, Direction::Input)
            .unwrap();
    }
    let mut bytes = Vec::new();
    write_header(&mut bytes);
    write_dict(&wide, &mut bytes);
    bytes.push(TAG_CYCLES);
    bytes.extend_from_slice(&1u32.to_le_bytes());
    assert_small_failure(&bytes);
}

/// Decoding `bytes` fails, and no single allocation on the way exceeded
/// 1 MiB.
fn assert_small_failure(bytes: &[u8]) {
    LARGEST.store(0, Ordering::Relaxed);
    let result = decode_trace(bytes);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(result.is_err());
    assert!(
        largest < 1 << 20,
        "decoding a {}-byte payload allocated {largest} bytes at once",
        bytes.len()
    );
}

/// Applies one to four random byte-level mutations: overwrite, bit flip,
/// truncation, insertion or deletion.
fn mutate(rng: &mut Prng, bytes: &mut Vec<u8>) {
    for _ in 0..1 + rng.range_usize(0..4) {
        if bytes.is_empty() {
            bytes.push(rng.next_u8());
            continue;
        }
        let at = rng.range_usize(0..bytes.len());
        match rng.range_u32(0..5) {
            0 => bytes[at] = rng.next_u8(),
            1 => bytes[at] ^= 1 << rng.range_u32(0..8),
            2 => bytes.truncate(at),
            3 => bytes.insert(at, rng.next_u8()),
            _ => {
                bytes.remove(at);
            }
        }
    }
}

#[test]
fn byte_mutated_payloads_never_panic_and_ok_results_round_trip() {
    let mut rng = Prng::seed_from_u64(0xDEC0_0002);
    let mut decoded_ok = 0;
    for case in 0..10_000 {
        let cycles = rng.range_usize(0..6);
        let mut bytes = encode_trace(&random_trace(&mut rng, cycles));
        mutate(&mut rng, &mut bytes);
        if let Ok(trace) = decode_trace(&bytes) {
            decoded_ok += 1;
            let again = decode_trace(&encode_trace(&trace)).expect("re-encoded payload decodes");
            assert_eq!(again, trace, "case {case}");
        }
    }
    // Mutations landing in the signal words leave payloads valid, so the
    // loop must exercise the re-encode check, not only error paths.
    assert!(
        decoded_ok > 100,
        "only {decoded_ok} mutated payloads decoded"
    );
}

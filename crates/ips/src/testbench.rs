//! Stimulus generators: the paper's *short-TS* and *long-TS* testsets.
//!
//! *short-TS* mimics the testbenches used for functional verification —
//! directed phases (resets, walking addresses, corner operands) followed by
//! constrained-random bursts — and is assumed to cover most IP behaviours.
//! *long-TS* re-stimulates the same functionality many more times with
//! fresh random data, up to a caller-chosen cycle budget (the paper uses
//! 500 000 instants).
//!
//! All generators are deterministic in their seed, and write each cycle
//! straight into the stimulus as one word row over the IP's inputs.

use crate::{Aes128, Ip, MultSum, Ram1k};
use psm_prng::Prng;
use psm_rtl::Stimulus;

/// Builds the short (verification-style) testset for a Table I benchmark.
///
/// Returns `None` for unknown names.
///
/// # Examples
///
/// ```
/// use psm_ips::testbench::short_ts;
/// let stim = short_ts("RAM", 1).expect("RAM is a benchmark");
/// assert!(stim.len() > 1000);
/// ```
pub fn short_ts(ip_name: &str, seed: u64) -> Option<Stimulus> {
    match ip_name {
        "RAM" => Some(ram_short_ts(seed)),
        "MultSum" => Some(multsum_short_ts(seed)),
        "AES" => Some(aes_short_ts(seed)),
        "Camellia" => Some(camellia_short_ts(seed)),
        _ => None,
    }
}

/// Builds a long randomised testset of roughly `target_cycles` cycles.
///
/// Returns `None` for unknown names.
pub fn long_ts(ip_name: &str, seed: u64, target_cycles: usize) -> Option<Stimulus> {
    match ip_name {
        "RAM" => Some(ram_long_ts(seed, target_cycles)),
        "MultSum" => Some(multsum_long_ts(seed, target_cycles)),
        "AES" => Some(aes_long_ts(seed, target_cycles)),
        "Camellia" => Some(camellia_long_ts(seed, target_cycles)),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// RAM
// ---------------------------------------------------------------------

/// Appends one RAM cycle: `addr`, `wdata`, `we`, `re`, `ce`, `clr`.
fn ram_cycle(stim: &mut Stimulus, addr: u64, wdata: u64, we: bool, re: bool, ce: bool, clr: bool) {
    stim.push_row(&[addr, wdata, we.into(), re.into(), ce.into(), clr.into()]);
}

fn ram_idle(stim: &mut Stimulus, cycles: usize) {
    for _ in 0..cycles {
        ram_cycle(stim, 0, 0, false, false, false, false);
    }
}

fn ram_random_phases(stim: &mut Stimulus, rng: &mut Prng, bursts: usize) {
    for _ in 0..bursts {
        let writes = rng.range_usize(8..32);
        for _ in 0..writes {
            let addr = rng.range_u64(0..256);
            ram_cycle(stim, addr, rng.next_u32() as u64, true, false, true, false);
        }
        let reads = rng.range_usize(8..32);
        for _ in 0..reads {
            ram_cycle(stim, rng.range_u64(0..256), 0, false, true, true, false);
        }
        if rng.chance(0.1) {
            ram_cycle(stim, 0, 0, false, false, true, true); // clr
        }
        ram_idle(stim, rng.range_usize(5..20));
    }
}

/// Verification-style testset for the RAM.
pub fn ram_short_ts(seed: u64) -> Stimulus {
    let mut rng = Prng::seed_from_u64(seed);
    let mut stim = Stimulus::for_inputs(&Ram1k::new().signals());
    ram_idle(&mut stim, 50);
    // Walking writes covering the whole array with a data pattern.
    for a in 0..256u64 {
        ram_cycle(&mut stim, a, a * 0x0101_0101, true, false, true, false);
    }
    ram_idle(&mut stim, 20);
    // Walking read-back.
    for a in 0..256u64 {
        ram_cycle(&mut stim, a, 0, false, true, true, false);
    }
    ram_idle(&mut stim, 20);
    // Corner data values.
    for &d in &[0u64, 0xFFFF_FFFF, 0xAAAA_AAAA, 0x5555_5555] {
        for a in [0u64, 255] {
            ram_cycle(&mut stim, a, d, true, true, true, false);
        }
    }
    ram_idle(&mut stim, 10);
    // Constrained-random bursts.
    ram_random_phases(&mut stim, &mut rng, 60);
    stim
}

/// Long randomised re-stimulation for the RAM.
pub fn ram_long_ts(seed: u64, target_cycles: usize) -> Stimulus {
    let mut rng = Prng::seed_from_u64(seed ^ 0x4A11_5EED_0001u64);
    let mut stim = Stimulus::for_inputs(&Ram1k::new().signals());
    ram_idle(&mut stim, 30);
    while stim.len() < target_cycles {
        ram_random_phases(&mut stim, &mut rng, 4);
    }
    stim
}

// ---------------------------------------------------------------------
// MultSum
// ---------------------------------------------------------------------

/// Appends one MAC cycle: `a`, `b`, `en`, `clear`.
fn mac_cycle(stim: &mut Stimulus, a: u64, b: u64, en: bool, clear: bool) {
    stim.push_row(&[a, b, en.into(), clear.into()]);
}

fn mac_idle(stim: &mut Stimulus, cycles: usize) {
    for _ in 0..cycles {
        mac_cycle(stim, 0, 0, false, false);
    }
}

fn mac_random_phases(stim: &mut Stimulus, rng: &mut Prng, bursts: usize) {
    let mut last = (0u64, 0u64);
    for _ in 0..bursts {
        // Occasional clear between jobs, operands held (quiet buses).
        if rng.chance(0.25) {
            mac_cycle(stim, last.0, last.1, false, true);
            mac_cycle(stim, last.0, last.1, false, false);
        }
        let len = rng.range_usize(16..48);
        for _ in 0..len {
            last = (rng.next_u16() as u64, rng.next_u16() as u64);
            mac_cycle(stim, last.0, last.1, true, false);
        }
        // Idle gaps hold the last operands (no pointless bus toggling).
        for _ in 0..rng.range_usize(5..20) {
            mac_cycle(stim, last.0, last.1, false, false);
        }
    }
}

/// Verification-style testset for the MAC.
pub fn multsum_short_ts(seed: u64) -> Stimulus {
    let mut rng = Prng::seed_from_u64(seed);
    let mut stim = Stimulus::for_inputs(&MultSum::new().signals());
    mac_idle(&mut stim, 40);
    // Directed corner operands.
    for &(a, b) in &[
        (0u64, 0u64),
        (1, 1),
        (0xFFFF, 0xFFFF),
        (0xFFFF, 1),
        (0x8000, 2),
        (0x5555, 0xAAAA),
    ] {
        mac_cycle(&mut stim, a, b, true, false);
    }
    mac_idle(&mut stim, 10);
    mac_random_phases(&mut stim, &mut rng, 60);
    stim
}

/// Long randomised re-stimulation for the MAC.
pub fn multsum_long_ts(seed: u64, target_cycles: usize) -> Stimulus {
    let mut rng = Prng::seed_from_u64(seed ^ 0x4A11_5EED_0002u64);
    let mut stim = Stimulus::for_inputs(&MultSum::new().signals());
    mac_idle(&mut stim, 25);
    while stim.len() < target_cycles {
        mac_random_phases(&mut stim, &mut rng, 4);
    }
    stim
}

// ---------------------------------------------------------------------
// Block ciphers (AES / Camellia share the interface)
// ---------------------------------------------------------------------

/// Appends one cipher cycle: `key`, `data` (two words each, low word
/// first), `start`, `load_key`, `decrypt`, and `ce` held high.
fn cipher_cycle(
    stim: &mut Stimulus,
    key: u128,
    data: u128,
    start: bool,
    load_key: bool,
    decrypt: bool,
) {
    stim.push_row(&[
        key as u64,
        (key >> 64) as u64,
        data as u64,
        (data >> 64) as u64,
        start.into(),
        load_key.into(),
        decrypt.into(),
        1,
    ]);
}

/// Loads a key: `load_key` pulse plus the key-schedule latency.
fn cipher_load_key(stim: &mut Stimulus, key_latency: usize, key: u128) {
    cipher_cycle(stim, key, 0, false, true, false);
    for _ in 0..key_latency {
        cipher_cycle(stim, key, 0, false, false, false);
    }
}

/// One block operation: `start` pulse, fixed-latency wait, idle gap.
fn cipher_op(
    stim: &mut Stimulus,
    latency: usize,
    key: u128,
    data: u128,
    decrypt: bool,
    idle_gap: usize,
) {
    cipher_cycle(stim, key, data, true, false, decrypt);
    for _ in 0..latency + idle_gap {
        cipher_cycle(stim, key, data, false, false, decrypt);
    }
}

/// `key_latency`/`block_latency`: cycles from pulse to `ready`;
/// `blocks_per_key`: how many blocks reuse one loaded key on average.
fn cipher_ts(
    seed: u64,
    key_latency: usize,
    block_latency: usize,
    ops: usize,
    directed: bool,
) -> Stimulus {
    let mut rng = Prng::seed_from_u64(seed);
    // Camellia's inputs are AES's, port for port.
    let mut stim = Stimulus::for_inputs(&Aes128::new().signals());
    // Initial idle.
    for _ in 0..15 {
        cipher_cycle(&mut stim, 0, 0, false, false, false);
    }
    if directed {
        // Corner keys/blocks first, encrypt and decrypt.
        for &(k, d) in &[
            (0u128, 0u128),
            (u128::MAX, u128::MAX),
            (0, u128::MAX),
            (0x0123_4567_89ab_cdef_fedc_ba98_7654_3210, 0),
        ] {
            cipher_load_key(&mut stim, key_latency, k);
            cipher_op(&mut stim, block_latency, k, d, false, 8);
            cipher_op(&mut stim, block_latency, k, d, true, 8);
        }
    }
    let mut key: u128 = rng.next_u128();
    cipher_load_key(&mut stim, key_latency, key);
    for i in 0..ops {
        // Re-key every ~12 blocks on average (key-agile usage).
        if rng.chance(1.0 / 12.0) {
            key = rng.next_u128();
            cipher_load_key(&mut stim, key_latency, key);
        }
        let data: u128 = rng.next_u128();
        let decrypt = i % 3 == 2 || rng.chance(0.2);
        let gap = rng.range_usize(3..18);
        cipher_op(&mut stim, block_latency, key, data, decrypt, gap);
    }
    stim
}

/// Verification-style testset for the AES core (11-cycle key schedule,
/// 11-cycle block (pulse to ready)).
pub fn aes_short_ts(seed: u64) -> Stimulus {
    cipher_ts(seed, 11, 11, 220, true)
}

/// Long randomised re-stimulation for the AES core.
pub fn aes_long_ts(seed: u64, target_cycles: usize) -> Stimulus {
    let ops = target_cycles / 23 + 1;
    cipher_ts(seed ^ 0xAE5_5EEDu64, 11, 11, ops, false)
}

/// Verification-style testset for the Camellia core (5-cycle key schedule,
/// 21-cycle block, pulse to ready).
pub fn camellia_short_ts(seed: u64) -> Stimulus {
    cipher_ts(seed, 5, 23, 170, true)
}

/// Long randomised re-stimulation for the Camellia core.
pub fn camellia_long_ts(seed: u64, target_cycles: usize) -> Stimulus {
    let ops = target_cycles / 34 + 1;
    cipher_ts(seed ^ 0xCA3E_117Au64, 5, 23, ops, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_ts_for_all_benchmarks() {
        for name in crate::BENCHMARK_NAMES {
            let stim = short_ts(name, 7).unwrap();
            assert!(stim.len() > 1000, "{name}: {} cycles", stim.len());
        }
        assert!(short_ts("nope", 7).is_none());
    }

    #[test]
    fn long_ts_meets_target() {
        for name in crate::BENCHMARK_NAMES {
            let stim = long_ts(name, 7, 5_000).unwrap();
            assert!(
                stim.len() >= 5_000 && stim.len() < 8_000,
                "{name}: {} cycles",
                stim.len()
            );
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for name in crate::BENCHMARK_NAMES {
            assert_eq!(short_ts(name, 3), short_ts(name, 3), "{name}");
            assert_ne!(short_ts(name, 3), short_ts(name, 4), "{name}");
        }
    }

    #[test]
    fn cipher_ops_pulse_start_once() {
        let stim = aes_short_ts(1);
        let mut prev_start = false;
        let mut max_run = 0;
        let mut run = 0;
        for row in stim.rows() {
            // Words 0–3 are key and data; `start` is word 4.
            let start = row[4] != 0;
            if start && prev_start {
                run += 1;
            } else {
                run = usize::from(start);
            }
            max_run = max_run.max(run);
            prev_start = start;
        }
        assert!(max_run <= 1, "start is a single-cycle pulse");
    }
}

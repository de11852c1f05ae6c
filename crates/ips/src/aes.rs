//! Round-iterative AES-128 encryption/decryption (FIPS-197) with a
//! key-agile interface.
// Index loops in the key schedule and MixColumns keep the FIPS-197
// pseudocode's w[i]/round indexing; iterator rewrites hide the spec shape.
#![allow(clippy::needless_range_loop)]
//!
//! Interface — 260 PI bits and 129 PO bits, matching the paper's Table I
//! AES row:
//!
//! | port       | dir | width | role                                       |
//! |------------|-----|-------|--------------------------------------------|
//! | `key`      | in  | 128   | cipher key (sampled by `load_key`)         |
//! | `data`     | in  | 128   | plaintext / ciphertext (sampled by `start`)|
//! | `start`    | in  | 1     | process one block with the loaded key      |
//! | `load_key` | in  | 1     | expand and store the key schedule          |
//! | `decrypt`  | in  | 1     | 0 = encrypt, 1 = decrypt                   |
//! | `ce`       | in  | 1     | chip enable (gates `start`/`load_key`)     |
//! | `out`      | out | 128   | result of the last completed block         |
//! | `ready`    | out | 1     | high while idle; drops during processing   |
//!
//! Micro-architecture (identical in the behavioural model and the
//! netlist):
//!
//! * `load_key` starts a 10-cycle key-expansion phase that stores the 11
//!   round keys;
//! * `start` starts an 11-cycle block phase (initial AddRoundKey plus 10
//!   rounds) against the stored schedule; the result lands in a dedicated
//!   output register, so `out` never exposes mid-round state.
//!
//! Separating key expansion from block processing keeps each busy phase
//! power-homogeneous — the property that gives AES its low MRE in the
//! paper despite being a multi-round design.
//!
//! Bytes map to bits little-endian: block byte *k* occupies bits
//! `[8k, 8k+8)` of the 128-bit ports.

use crate::traits::Ip;
use psm_rtl::{Netlist, NetlistBuilder, RtlError, Word};
use psm_trace::{Direction, SignalSet};

/// AES S-box.
pub(crate) const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

fn inv_sbox() -> [u8; 256] {
    let mut inv = [0u8; 256];
    for (i, &s) in SBOX.iter().enumerate() {
        inv[s as usize] = i as u8;
    }
    inv
}

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

fn gmul(a: u8, mut b: u8) -> u8 {
    let mut a = a;
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    acc
}

/// One key-schedule step: round key i → round key i+1.
fn next_round_key(prev: &[u8; 16], round: usize) -> [u8; 16] {
    let mut out = [0u8; 16];
    let mut temp = [prev[13], prev[14], prev[15], prev[12]]; // RotWord(col3)
    for t in &mut temp {
        *t = SBOX[*t as usize];
    }
    temp[0] ^= RCON[round - 1];
    for j in 0..4 {
        for k in 0..4 {
            let idx = 4 * j + k;
            let left = if j == 0 { temp[k] } else { out[idx - 4] };
            out[idx] = prev[idx] ^ left;
        }
    }
    out
}

fn shift_rows(s: &[u8; 16]) -> [u8; 16] {
    // Byte index = row + 4·col; row r rotates left by r.
    let mut out = [0u8; 16];
    for r in 0..4 {
        for c in 0..4 {
            out[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
        }
    }
    out
}

fn inv_shift_rows(s: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for r in 0..4 {
        for c in 0..4 {
            out[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
        }
    }
    out
}

fn mix_columns(s: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for c in 0..4 {
        let col = &s[4 * c..4 * c + 4];
        out[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
        out[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
        out[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
        out[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
    }
    out
}

fn inv_mix_columns(s: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for c in 0..4 {
        let col = &s[4 * c..4 * c + 4];
        out[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
        out[4 * c + 1] = gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
        out[4 * c + 2] = gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
        out[4 * c + 3] = gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
    }
    out
}

fn xor16(a: &[u8; 16], b: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for i in 0..16 {
        out[i] = a[i] ^ b[i];
    }
    out
}

/// Single-shot AES-128 block encryption — the pure reference function the
/// cycle-accurate core and the netlist are tested against.
///
/// # Examples
///
/// ```
/// use psm_ips::aes_encrypt_block;
/// let key = [0u8; 16];
/// let ct = aes_encrypt_block(&key, &[0u8; 16]);
/// assert_ne!(ct, [0u8; 16]);
/// ```
pub fn encrypt_block(key: &[u8; 16], block: &[u8; 16]) -> [u8; 16] {
    let mut rk = [[0u8; 16]; 11];
    rk[0] = *key;
    for i in 1..11 {
        rk[i] = next_round_key(&rk[i - 1], i);
    }
    let mut st = xor16(block, &rk[0]);
    for r in 1..=10 {
        let mut sb = st;
        for b in &mut sb {
            *b = SBOX[*b as usize];
        }
        let sr = shift_rows(&sb);
        let mc = if r < 10 { mix_columns(&sr) } else { sr };
        st = xor16(&mc, &rk[r]);
    }
    st
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    KeyExp,
    Rounds,
}

/// Behavioural model of the key-agile iterative AES core; see the
/// module docs above.
#[derive(Debug, Clone)]
pub struct Aes128 {
    phase: Phase,
    cnt: usize,
    st: [u8; 16],
    out: [u8; 16],
    dec: bool,
    rk: [[u8; 16]; 11],
    inv_sbox: [u8; 256],
}

impl Aes128 {
    /// An idle AES core with an all-zero key schedule.
    pub fn new() -> Self {
        Aes128 {
            phase: Phase::Idle,
            cnt: 0,
            st: [0; 16],
            out: [0; 16],
            dec: false,
            rk: [[0; 16]; 11],
            inv_sbox: inv_sbox(),
        }
    }
}

impl Default for Aes128 {
    fn default() -> Self {
        Aes128::new()
    }
}

impl Ip for Aes128 {
    fn name(&self) -> &'static str {
        "AES"
    }

    fn signals(&self) -> SignalSet {
        let mut s = SignalSet::new();
        s.push("key", 128, Direction::Input).expect("unique");
        s.push("data", 128, Direction::Input).expect("unique");
        s.push("start", 1, Direction::Input).expect("unique");
        s.push("load_key", 1, Direction::Input).expect("unique");
        s.push("decrypt", 1, Direction::Input).expect("unique");
        s.push("ce", 1, Direction::Input).expect("unique");
        s.push("out", 128, Direction::Output).expect("unique");
        s.push("ready", 1, Direction::Output).expect("unique");
        s
    }

    fn netlist(&self) -> Result<Netlist, RtlError> {
        build_aes_netlist()
    }

    fn reset(&mut self) {
        self.phase = Phase::Idle;
        self.cnt = 0;
        self.st = [0; 16];
        self.out = [0; 16];
        self.dec = false;
        self.rk = [[0; 16]; 11];
    }

    fn step(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        let &[key_lo, key_hi, data_lo, data_hi, start, load_key, decrypt, ce] = inputs else {
            panic!("AES takes two 2-word and four 1-word input ports");
        };
        let ce = ce != 0;
        let start = start != 0 && ce;
        let load_key = load_key != 0 && ce;
        let decrypt = decrypt != 0;

        // Outputs visible during this cycle.
        let out = u128::from_le_bytes(self.out);
        outputs[0] = out as u64;
        outputs[1] = (out >> 64) as u64;
        outputs[2] = u64::from(self.phase == Phase::Idle);

        // Clock edge.
        match self.phase {
            Phase::Idle => {
                if load_key {
                    self.rk[0] = (u128::from(key_hi) << 64 | u128::from(key_lo)).to_le_bytes();
                    self.cnt = 1;
                    self.phase = Phase::KeyExp;
                } else if start {
                    let data = (u128::from(data_hi) << 64 | u128::from(data_lo)).to_le_bytes();
                    self.dec = decrypt;
                    // Initial AddRoundKey happens at capture.
                    let k = if decrypt { &self.rk[10] } else { &self.rk[0] };
                    self.st = xor16(&data, k);
                    self.cnt = 1;
                    self.phase = Phase::Rounds;
                }
            }
            Phase::KeyExp => {
                self.rk[self.cnt] = next_round_key(&self.rk[self.cnt - 1], self.cnt);
                if self.cnt == 10 {
                    self.phase = Phase::Idle;
                } else {
                    self.cnt += 1;
                }
            }
            Phase::Rounds => {
                let r = self.cnt;
                let prev_st = self.st;
                if self.dec {
                    let isr = inv_shift_rows(&self.st);
                    let mut isb = isr;
                    for b in &mut isb {
                        *b = self.inv_sbox[*b as usize];
                    }
                    let ark = xor16(&isb, &self.rk[10 - r]);
                    self.st = if r < 10 { inv_mix_columns(&ark) } else { ark };
                } else {
                    let mut sb = self.st;
                    for b in &mut sb {
                        *b = SBOX[*b as usize];
                    }
                    let sr = shift_rows(&sb);
                    let mc = if r < 10 { mix_columns(&sr) } else { sr };
                    self.st = xor16(&mc, &self.rk[r]);
                }
                if r == 10 {
                    // Operand isolation: the final result goes to the
                    // output register only; `st` holds its pre-final value
                    // so the round cone stays quiet while idle.
                    self.out = self.st;
                    self.st = prev_st;
                    self.phase = Phase::Idle;
                } else {
                    self.cnt = r + 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Structural twin
// ---------------------------------------------------------------------

/// 16 bytes of a 128-bit word as builder sub-words, byte k = bits 8k…
fn bytes_of(w: &Word) -> Vec<Word> {
    (0..16).map(|k| w.slice(8 * k, 8)).collect()
}

fn word_of_bytes(bytes: &[Word]) -> Word {
    let mut w = bytes[0].clone();
    for b in &bytes[1..] {
        w = w.concat(b);
    }
    w
}

/// xtime in gates: shift + conditional 0x1b.
fn xtime_gates(b: &mut NetlistBuilder, x: &Word) -> Word {
    let shifted = b.shl_const(x, 1);
    let msb = x.bit(7);
    // 0x1b = bits 0, 1, 3, 4.
    let mut nets = Vec::with_capacity(8);
    for i in 0..8 {
        if matches!(i, 0 | 1 | 3 | 4) {
            nets.push(b.xor(shifted.bit(i), msb));
        } else {
            nets.push(shifted.bit(i));
        }
    }
    Word::from_nets(nets)
}

fn mix_columns_gates(b: &mut NetlistBuilder, bytes: &[Word], inverse: bool) -> Vec<Word> {
    let mut out = Vec::with_capacity(16);
    let x2: Vec<Word> = bytes.iter().map(|x| xtime_gates(b, x)).collect();
    if !inverse {
        for c in 0..4 {
            let col: Vec<usize> = (0..4).map(|r| 4 * c + r).collect();
            for r in 0..4 {
                let coef = [2u8, 3, 1, 1];
                let mut acc: Option<Word> = None;
                for k in 0..4 {
                    let idx = col[(r + k) % 4];
                    let term = match coef[k] {
                        1 => bytes[idx].clone(),
                        2 => x2[idx].clone(),
                        3 => b.xor_word(&x2[idx], &bytes[idx]),
                        _ => unreachable!(),
                    };
                    acc = Some(match acc {
                        None => term,
                        Some(a) => b.xor_word(&a, &term),
                    });
                }
                out.push(acc.expect("four terms"));
            }
        }
    } else {
        let x4: Vec<Word> = x2.iter().map(|x| xtime_gates(b, x)).collect();
        let x8: Vec<Word> = x4.iter().map(|x| xtime_gates(b, x)).collect();
        for c in 0..4 {
            let col: Vec<usize> = (0..4).map(|r| 4 * c + r).collect();
            for r in 0..4 {
                let coef = [14u8, 11, 13, 9];
                let mut acc: Option<Word> = None;
                for k in 0..4 {
                    let idx = col[(r + k) % 4];
                    let term = match coef[k] {
                        9 => b.xor_word(&x8[idx], &bytes[idx]),
                        11 => {
                            let t = b.xor_word(&x8[idx], &x2[idx]);
                            b.xor_word(&t, &bytes[idx])
                        }
                        13 => {
                            let t = b.xor_word(&x8[idx], &x4[idx]);
                            b.xor_word(&t, &bytes[idx])
                        }
                        14 => {
                            let t = b.xor_word(&x8[idx], &x4[idx]);
                            b.xor_word(&t, &x2[idx])
                        }
                        _ => unreachable!(),
                    };
                    acc = Some(match acc {
                        None => term,
                        Some(a) => b.xor_word(&a, &term),
                    });
                }
                out.push(acc.expect("four terms"));
            }
        }
    }
    out
}

fn build_aes_netlist() -> Result<Netlist, RtlError> {
    let mut b = NetlistBuilder::new("aes128");
    let key = b.input("key", 128);
    let data = b.input("data", 128);
    let start_in = b.input("start", 1).bit(0);
    let load_key_in = b.input("load_key", 1).bit(0);
    let decrypt = b.input("decrypt", 1).bit(0);
    let ce = b.input("ce", 1).bit(0);
    let start = b.and(start_in, ce);
    let load_key = b.and(load_key_in, ce);

    let inv = inv_sbox();

    // ---- registers -----------------------------------------------------
    let phase = b.register("phase", 2); // 0 idle, 1 keyexp, 2 rounds
    let cnt = b.register("cnt", 4);
    let st = b.register("st", 128);
    let out_reg = b.register("out_q", 128);
    let dec = b.register("dec", 1);
    let rks: Vec<_> = (0..11).map(|i| b.register(format!("rk{i}"), 128)).collect();

    let phase_q = phase.q();
    let cnt_q = cnt.q();
    let st_q = st.q();
    let dec_q = dec.q().bit(0);

    let in_idle = b.eq_const(&phase_q, 0);
    let in_keyexp = b.eq_const(&phase_q, 1);
    let in_rounds = b.eq_const(&phase_q, 2);

    let load_fire = b.and(in_idle, load_key);
    let nstart = b.not(load_key);
    let start_gated = b.and(start, nstart); // load_key wins ties
    let start_fire = b.and(in_idle, start_gated);

    // ---- key schedule block ---------------------------------------------
    let one4 = b.const_word(1, 4);
    let cnt_m1 = b.sub(&cnt_q, &one4).sum;
    let rk_words: Vec<Word> = rks.iter().map(|r| r.q()).collect();
    let mut opts = rk_words.clone();
    while opts.len() < 16 {
        opts.push(rk_words[10].clone());
    }
    let rk_prev = b.mux_tree(&cnt_m1, &opts);
    let prev_bytes = bytes_of(&rk_prev);
    let rot = [13usize, 14, 15, 12];
    let subbed: Vec<Word> = rot
        .iter()
        .map(|&i| b.sbox8(&prev_bytes[i], &SBOX))
        .collect();
    let rcon_table: Vec<u64> = (0..16)
        .map(|i| {
            if (1..=10).contains(&i) {
                RCON[i - 1] as u64
            } else {
                0
            }
        })
        .collect();
    let rcon = b.rom(&cnt_q, &rcon_table, 8);
    let temp0 = b.xor_word(&subbed[0], &rcon);
    let temp = [
        temp0,
        subbed[1].clone(),
        subbed[2].clone(),
        subbed[3].clone(),
    ];
    let mut nk_bytes: Vec<Word> = Vec::with_capacity(16);
    for j in 0..4 {
        for k in 0..4 {
            let left = if j == 0 {
                temp[k].clone()
            } else {
                nk_bytes[4 * (j - 1) + k].clone()
            };
            let v = b.xor_word(&prev_bytes[4 * j + k], &left);
            nk_bytes.push(v);
        }
    }
    let next_key = word_of_bytes(&nk_bytes);

    b.connect_register_en(&rks[0], load_fire, &key);
    for i in 1..11 {
        let is_i = b.eq_const(&cnt_q, i as u64);
        let en = b.and(in_keyexp, is_i);
        b.connect_register_en(&rks[i], en, &next_key);
    }

    // ---- round datapath ---------------------------------------------------
    let st_bytes = bytes_of(&st_q);

    // Round-key selection: enc uses rk[cnt], dec uses rk[10 − cnt].
    let ten = b.const_word(10, 4);
    let ten_m_cnt = b.sub(&ten, &cnt_q).sum;
    let sel_idx = b.mux_word(dec_q, &cnt_q, &ten_m_cnt);
    let rk_sel = b.mux_tree(&sel_idx, &opts);

    // Encrypt path.
    let sb: Vec<Word> = st_bytes.iter().map(|byte| b.sbox8(byte, &SBOX)).collect();
    let sr: Vec<Word> = (0..16)
        .map(|i| {
            let r = i % 4;
            let c = i / 4;
            sb[r + 4 * ((c + r) % 4)].clone()
        })
        .collect();
    let mc = mix_columns_gates(&mut b, &sr, false);
    let is_last = b.eq_const(&cnt_q, 10);
    let enc_pre: Vec<Word> = (0..16)
        .map(|i| b.mux_word(is_last, &mc[i], &sr[i]))
        .collect();
    let enc_pre_w = word_of_bytes(&enc_pre);
    let enc_next = b.xor_word(&enc_pre_w, &rk_sel);

    // Decrypt path.
    let isr: Vec<Word> = (0..16)
        .map(|i| {
            let r = i % 4;
            let c = i / 4;
            st_bytes[r + 4 * ((c + 4 - r) % 4)].clone()
        })
        .collect();
    let isb: Vec<Word> = isr.iter().map(|byte| b.sbox8(byte, &inv)).collect();
    let isb_w = word_of_bytes(&isb);
    let ark = b.xor_word(&isb_w, &rk_sel);
    let ark_bytes = bytes_of(&ark);
    let imc = mix_columns_gates(&mut b, &ark_bytes, true);
    let dec_next: Vec<Word> = (0..16)
        .map(|i| b.mux_word(is_last, &imc[i], &ark_bytes[i]))
        .collect();
    let dec_next_w = word_of_bytes(&dec_next);

    let round_next = b.mux_word(dec_q, &enc_next, &dec_next_w);

    // Initial AddRoundKey at capture: data ^ rk0 (enc) / data ^ rk10 (dec).
    let rk10_q = rks[10].q();
    let rk0_q = rks[0].q();
    let ark0_key = b.mux_word(decrypt, &rk0_q, &rk10_q);
    let data_ark = b.xor_word(&data, &ark0_key);

    // ---- state register update -------------------------------------------
    // Operand isolation: at the final round `st` holds (the result lands
    // only in the output register), keeping the round cone quiet while
    // the core is idle.
    let rounds_advance = {
        let not_last = b.not(is_last);
        b.and(in_rounds, not_last)
    };
    let st_after_rounds = b.mux_word(rounds_advance, &st_q, &round_next);
    let st_next = b.mux_word(start_fire, &st_after_rounds, &data_ark);
    b.connect_register(&st, &st_next);

    let dec_w = Word::from_nets(vec![decrypt]);
    b.connect_register_en(&dec, start_fire, &dec_w);

    // Output register: captures the last round's result.
    let finish = b.and(in_rounds, is_last);
    b.connect_register_en(&out_reg, finish, &round_next);

    // ---- controller ---------------------------------------------------------
    let cnt_p1 = b.inc(&cnt_q).sum;
    let zero4 = b.const_word(0, 4);
    let keyexp_done = {
        let is_10 = b.eq_const(&cnt_q, 10);
        b.and(in_keyexp, is_10)
    };
    let busy = b.or(in_keyexp, in_rounds);
    let begin = b.or(start_fire, load_fire);
    let ending = b.or(keyexp_done, finish);
    // The counter *holds* once a phase ends: resetting it while idle would
    // ripple the round-key mux trees every time the core goes quiet,
    // polluting the idle power level. `begin` restarts it at 1.
    let _ = &zero4;
    let mut cnt_next = b.mux_word(busy, &cnt_q, &cnt_p1);
    cnt_next = b.mux_word(ending, &cnt_next, &cnt_q);
    let one4b = b.const_word(1, 4);
    cnt_next = b.mux_word(begin, &cnt_next, &one4b);
    b.connect_register(&cnt, &cnt_next);

    let p_idle = b.const_word(0, 2);
    let p_keyexp = b.const_word(1, 2);
    let p_rounds = b.const_word(2, 2);
    let mut phase_next = phase_q.clone();
    phase_next = b.mux_word(ending, &phase_next, &p_idle);
    phase_next = b.mux_word(load_fire, &phase_next, &p_keyexp);
    phase_next = b.mux_word(start_fire, &phase_next, &p_rounds);
    b.connect_register(&phase, &phase_next);

    // ---- outputs -----------------------------------------------------------
    b.output("out", &out_reg.q());
    b.output("ready", &Word::from_nets(vec![in_idle]));
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_trace::Bits;

    /// FIPS-197 Appendix B vector.
    const FIPS_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    const FIPS_PT: [u8; 16] = [
        0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07,
        0x34,
    ];
    const FIPS_CT: [u8; 16] = [
        0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b,
        0x32,
    ];

    #[test]
    fn reference_function_matches_fips197() {
        assert_eq!(encrypt_block(&FIPS_KEY, &FIPS_PT), FIPS_CT);
    }

    #[test]
    fn key_schedule_first_and_last_round_keys() {
        let rk1 = next_round_key(&FIPS_KEY, 1);
        assert_eq!(rk1[..4], [0xa0, 0xfa, 0xfe, 0x17]);
        let mut rk = FIPS_KEY;
        for i in 1..11 {
            rk = next_round_key(&rk, i);
        }
        assert_eq!(rk[..4], [0xd0, 0x14, 0xf9, 0xa8]);
        assert_eq!(rk[12..], [0xb6, 0x63, 0x0c, 0xa6]);
    }

    fn cycle(
        key: &[u8; 16],
        data: &[u8; 16],
        start: bool,
        load_key: bool,
        decrypt: bool,
    ) -> Vec<Bits> {
        vec![
            Bits::from_le_bytes(key, 128),
            Bits::from_le_bytes(data, 128),
            Bits::from_bool(start),
            Bits::from_bool(load_key),
            Bits::from_bool(decrypt),
            Bits::from_bool(true),
        ]
    }

    /// Loads the key, waits for ready, then runs one block.
    fn load_and_run(
        core: &mut Aes128,
        key: &[u8; 16],
        data: &[u8; 16],
        decrypt: bool,
    ) -> ([u8; 16], usize, usize) {
        core.step_bits(&cycle(key, data, false, true, decrypt));
        let mut key_latency = 0;
        for t in 1..=30 {
            let outs = core.step_bits(&cycle(key, data, false, false, decrypt));
            if outs[1].bit(0) {
                key_latency = t;
                break;
            }
        }
        core.step_bits(&cycle(key, data, true, false, decrypt));
        for t in 1..=30 {
            let outs = core.step_bits(&cycle(key, data, false, false, decrypt));
            if outs[1].bit(0) {
                let mut result = [0u8; 16];
                result.copy_from_slice(&outs[0].to_le_bytes());
                return (result, key_latency, t);
            }
        }
        panic!("ready never rose after start");
    }

    #[test]
    fn behavioural_encrypts_fips_vector() {
        let mut core = Aes128::new();
        let (ct, key_lat, blk_lat) = load_and_run(&mut core, &FIPS_KEY, &FIPS_PT, false);
        assert_eq!(ct, FIPS_CT);
        assert_eq!(key_lat, 11, "key expansion latency (pulse to ready)");
        assert_eq!(blk_lat, 11, "block latency");
    }

    #[test]
    fn behavioural_decrypts_fips_vector() {
        let mut core = Aes128::new();
        let (pt, _, _) = load_and_run(&mut core, &FIPS_KEY, &FIPS_CT, true);
        assert_eq!(pt, FIPS_PT);
    }

    #[test]
    fn key_persists_across_blocks() {
        let mut core = Aes128::new();
        let (ct1, _, _) = load_and_run(&mut core, &FIPS_KEY, &FIPS_PT, false);
        // Second block without reloading the key.
        core.step_bits(&cycle(&FIPS_KEY, &ct1, true, false, true));
        let mut back = None;
        for _ in 1..=30 {
            let outs = core.step_bits(&cycle(&FIPS_KEY, &ct1, false, false, true));
            if outs[1].bit(0) {
                let mut r = [0u8; 16];
                r.copy_from_slice(&outs[0].to_le_bytes());
                back = Some(r);
                break;
            }
        }
        assert_eq!(back, Some(FIPS_PT));
    }

    #[test]
    fn chip_enable_gates_commands() {
        let mut core = Aes128::new();
        let mut c = cycle(&FIPS_KEY, &FIPS_PT, true, true, false);
        c[5] = Bits::from_bool(false); // ce low
        core.step_bits(&c);
        let outs = core.step_bits(&cycle(&FIPS_KEY, &FIPS_PT, false, false, false));
        assert!(outs[1].bit(0), "still idle: commands were gated");
    }

    #[test]
    fn out_is_stable_while_busy() {
        let mut core = Aes128::new();
        let (ct1, _, _) = load_and_run(&mut core, &FIPS_KEY, &FIPS_PT, false);
        // Start another block; `out` must keep showing ct1 while busy.
        core.step_bits(&cycle(&FIPS_KEY, &FIPS_PT, true, false, false));
        for _ in 0..5 {
            let outs = core.step_bits(&cycle(&FIPS_KEY, &FIPS_PT, false, false, false));
            let mut visible = [0u8; 16];
            visible.copy_from_slice(&outs[0].to_le_bytes());
            assert_eq!(visible, ct1);
            assert!(!outs[1].bit(0));
        }
    }

    #[test]
    fn interface_shape_matches_paper() {
        let s = Aes128::new().signals();
        assert_eq!(s.input_width(), 260); // paper Table I: PIs 260
        assert_eq!(s.output_width(), 129); // paper Table I: POs 129
    }

    #[test]
    fn netlist_builds_and_validates() {
        let n = Aes128::new().netlist().unwrap();
        let stats = n.stats();
        assert!(stats.memory_elements > 1500);
        assert!(stats.combinational > 3000);
        assert_eq!(stats.input_bits, 260);
        assert_eq!(stats.output_bits, 129);
    }
}

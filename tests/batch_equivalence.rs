//! Bit-identity of the 64-lane batch engine against the scalar simulator.
//!
//! The batch capture path replaces the scalar one in training, so the
//! contract is absolute: for every benchmark IP and for arbitrary
//! generated netlists, `BatchSimulator` must reproduce the scalar
//! `Simulator`'s per-cycle activity, domain accounting, port samples and
//! captured traces *byte for byte* — not approximately, byte for byte,
//! because trained models and benchmark baselines are compared as
//! serialised bytes.

use psm_prng::Prng;
use psmgen::ips::{ip_by_name, testbench};
use psmgen::rtl::{
    capture_traces, capture_traces_batch, capture_traces_by_domain, capture_traces_by_domain_batch,
    parse_verilog, write_verilog, BatchSimulator, Netlist, NetlistBuilder, PowerModel, Simulator,
    Stimulus, Word,
};
use psmgen::trace::Bits;

/// Steps a batch simulator and one scalar simulator per lane in lockstep,
/// comparing activity, domain accounting and port samples each cycle.
fn assert_lockstep_identical(name: &str, netlist: &Netlist, stimuli: &[Stimulus]) {
    let lanes = stimuli.len();
    let mut batch = BatchSimulator::new(netlist, lanes).expect("netlist is acyclic");
    let mut scalars: Vec<Simulator> = (0..lanes)
        .map(|_| Simulator::new(netlist).expect("netlist is acyclic"))
        .collect();
    let handles = scalars[0].input_handles();
    let rows: Vec<Vec<Vec<Bits>>> = stimuli
        .iter()
        .map(|s| (0..s.len()).map(|t| s.cycle_bits(t)).collect())
        .collect();
    let cycles = stimuli.iter().map(Stimulus::len).min().unwrap_or(0);
    assert!(cycles > 0, "{name}: empty stimulus");
    for t in 0..cycles {
        for (l, lane_rows) in rows.iter().enumerate() {
            for (p, (_, h)) in handles.iter().enumerate() {
                scalars[l]
                    .set_input_by_handle(*h, &lane_rows[t][p])
                    .expect("widths match");
                batch
                    .set_input(
                        l,
                        batch.port_handle(&handles[p].0).expect("port"),
                        &lane_rows[t][p],
                    )
                    .expect("widths match");
            }
        }
        batch.step();
        for (l, scalar) in scalars.iter_mut().enumerate() {
            let want = scalar.step();
            let got = batch.activities()[l];
            assert_eq!(
                got.switched_capacitance_ff.to_bits(),
                want.switched_capacitance_ff.to_bits(),
                "{name}: lane {l} switched capacitance diverges at cycle {t}"
            );
            assert_eq!(
                got.toggled_nets, want.toggled_nets,
                "{name}: lane {l} toggle count diverges at cycle {t}"
            );
            let got_dom = batch.domain_activity(l);
            let want_dom = scalar.domain_activity();
            assert_eq!(got_dom.len(), want_dom.len());
            for (d, (g, w)) in got_dom.iter().zip(want_dom).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{name}: lane {l} domain {d} diverges at cycle {t}"
                );
            }
            assert_eq!(
                batch.sample_ports(l),
                scalar.sample_ports(),
                "{name}: lane {l} port samples diverge at cycle {t}"
            );
        }
    }
}

/// Captures the same stimuli through both engines and compares the full
/// hierarchical results (functional trace, total power, per-domain power)
/// and the total-only batch capture.
fn assert_captures_identical(name: &str, netlist: &Netlist, stimuli: &[Stimulus], seed: u64) {
    let model = PowerModel::default();
    let seeds: Vec<u64> = (0..stimuli.len() as u64).map(|i| seed + i).collect();
    let totals = capture_traces_batch(netlist, &model, stimuli, &seeds).expect("batch captures");
    assert_eq!(totals.len(), stimuli.len());
    for (k, got) in totals.iter().enumerate() {
        let want = capture_traces(netlist, &model, &stimuli[k], seeds[k]).expect("captures");
        assert_eq!(
            got.functional, want.functional,
            "{name}: total-only functional trace {k} diverges"
        );
        assert_eq!(
            got.power, want.power,
            "{name}: total-only power trace {k} diverges"
        );
    }
    let batch =
        capture_traces_by_domain_batch(netlist, &model, stimuli, &seeds).expect("batch captures");
    assert_eq!(batch.len(), stimuli.len());
    for (k, got) in batch.iter().enumerate() {
        let want =
            capture_traces_by_domain(netlist, &model, &stimuli[k], seeds[k]).expect("captures");
        assert_eq!(
            got.functional, want.functional,
            "{name}: functional trace {k} diverges"
        );
        assert_eq!(got.total, want.total, "{name}: power trace {k} diverges");
        assert_eq!(got.domains, want.domains, "{name}: domain names diverge");
        assert_eq!(
            got.by_domain, want.by_domain,
            "{name}: domain power traces {k} diverge"
        );
    }
}

fn bench_stimuli(name: &str) -> Vec<Stimulus> {
    match name {
        "RAM" => vec![
            testbench::ram_short_ts(11),
            testbench::ram_long_ts(12, 400),
            testbench::ram_long_ts(13, 250),
        ],
        "MultSum" => vec![
            testbench::multsum_short_ts(11),
            testbench::multsum_long_ts(12, 400),
            testbench::multsum_long_ts(13, 250),
        ],
        "AES" => vec![
            testbench::aes_long_ts(11, 300),
            testbench::aes_long_ts(12, 200),
        ],
        "Camellia" => vec![
            testbench::camellia_long_ts(11, 300),
            testbench::camellia_long_ts(12, 200),
        ],
        other => panic!("unknown bench {other}"),
    }
}

#[test]
fn batch_engine_matches_scalar_on_all_paper_benches() {
    for name in ["RAM", "MultSum", "AES", "Camellia"] {
        let ip = ip_by_name(name).expect("benchmark exists");
        let netlist = ip.netlist().expect("netlist builds");
        let stimuli = bench_stimuli(name);
        assert_lockstep_identical(name, &netlist, &stimuli);
        assert_captures_identical(
            name,
            &netlist,
            &stimuli,
            0x9E37 + netlist.net_count() as u64,
        );
    }
}

/// A randomized-but-valid netlist: two clock domains, registers, a feedback
/// accumulator, a random DAG of word ops (NAND/NOR and constant operands
/// among them), an S-box LUT and an SRAM macro, round-tripped through
/// Verilog with every other inverter turned into a buffer — every cell
/// kind and accounting path the engines implement.
fn random_netlist(seed: u64) -> Netlist {
    let built = random_builder_netlist(seed);
    let mut text = Vec::new();
    write_verilog(&built, &mut text).expect("writes to memory");
    let text = String::from_utf8(text).expect("writer emits utf-8");
    let mut inverters = 0usize;
    let with_buffers: Vec<String> = text
        .lines()
        .map(|line| {
            if line.contains(" not  g") {
                inverters += 1;
                if inverters % 2 == 1 {
                    return line.replacen(" not  g", " buf  g", 1);
                }
            }
            line.to_owned()
        })
        .collect();
    assert!(inverters > 0, "the generator always emits inverters");
    let netlist = parse_verilog(&with_buffers.join("\n")).expect("round trip parses");
    netlist.validate().expect("buffers keep one driver per net");
    netlist
}

fn random_builder_netlist(seed: u64) -> Netlist {
    let mut rng = Prng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new("fuzz");
    let in_a = b.input("a", 8);
    let in_b = b.input("b", 8);
    let ctl = b.input("ctl", 4);
    let cmd = b.input("cmd", 3);

    let r0 = b.register("r0", 8);
    let r1 = b.register("r1", 8);
    let mut words = vec![in_a.clone(), in_b.clone(), r0.q(), r1.q()];

    for k in 0..10 {
        if rng.chance(0.3) {
            // Hop between domains so gate/dff/mem attribution is exercised.
            b.domain(if rng.chance(0.5) { "unit_b" } else { "core" });
        }
        let x = words[rng.range_usize(0..words.len())].clone();
        let y = words[rng.range_usize(0..words.len())].clone();
        let w = match rng.range_usize(0..9) {
            0 => b.and_word(&x, &y),
            1 => b.or_word(&x, &y),
            2 => b.xor_word(&x, &y),
            3 => b.not_word(&x),
            4 => b.mux_word(ctl.bit(k % 4), &x, &y),
            5 => Word::from_nets((0..8).map(|i| b.nand(x.bit(i), y.bit(i))).collect()),
            6 => Word::from_nets((0..8).map(|i| b.nor(x.bit(i), y.bit(i))).collect()),
            7 => {
                // One constant operand per bit, in either pin.
                let nets = (0..8)
                    .map(|i| {
                        let k = if rng.chance(0.5) {
                            b.const1()
                        } else {
                            b.const0()
                        };
                        match rng.range_usize(0..7) {
                            0 => b.and(x.bit(i), k),
                            1 => b.or(k, x.bit(i)),
                            2 => b.xor(x.bit(i), k),
                            3 => b.nand(k, x.bit(i)),
                            4 => b.nor(x.bit(i), k),
                            5 => b.mux(k, x.bit(i), y.bit(i)),
                            _ => b.mux(x.bit(i), k, y.bit(i)),
                        }
                    })
                    .collect();
                Word::from_nets(nets)
            }
            _ => b.add(&x, &y).sum,
        };
        words.push(w);
    }
    // Inverters the Verilog round trip turns partly into buffers.
    let inv_in = words[rng.range_usize(0..words.len())].clone();
    let inv = b.not_word(&inv_in);
    words.push(inv);

    // LUT macro path: a deterministic pseudo S-box.
    let mut table = [0u8; 256];
    for (i, cell) in table.iter_mut().enumerate() {
        *cell = ((i * 31 + 7) ^ (i >> 3)) as u8;
    }
    let sb_in = words[rng.range_usize(0..words.len())].clone();
    let sb = b.sbox8(&sb_in, &table);
    words.push(sb);

    // SRAM macro path: 16 words × 8 bits, command bits from `cmd`.
    b.domain("unit_b");
    let wdata = words[rng.range_usize(0..words.len())].clone();
    let rdata = b.memory(&ctl, &wdata, cmd.bit(0), cmd.bit(1), cmd.bit(2));
    b.domain("core");
    words.push(rdata);

    // Close the register loops through the random DAG.
    let n0 = words[rng.range_usize(0..words.len())].clone();
    b.connect_register(&r0, &n0);
    let fb = b.add(&r1.q(), &words[rng.range_usize(0..words.len())].clone());
    b.connect_register_en(&r1, ctl.bit(3), &fb.sum);

    let out = words[words.len() - 1].clone();
    b.output("y", &out);
    let sum = b.xor_word(&r0.q(), &r1.q());
    b.output("z", &sum);
    b.finish().expect("random netlist is structurally valid")
}

fn random_stimulus(rng: &mut Prng, cycles: usize) -> Stimulus {
    let mut stim = Stimulus::new();
    for _ in 0..cycles {
        stim.push_cycle(vec![
            Bits::from_u64(rng.range_u64(0..256), 8),
            Bits::from_u64(rng.range_u64(0..256), 8),
            Bits::from_u64(rng.range_u64(0..16), 4),
            Bits::from_u64(rng.range_u64(0..8), 3),
        ])
        .unwrap();
    }
    stim
}

#[test]
fn batch_engine_matches_scalar_on_randomized_netlists() {
    for netlist_seed in [1u64, 2, 3, 4, 5] {
        let netlist = random_netlist(netlist_seed);
        let mut rng = Prng::seed_from_u64(0xFACE ^ netlist_seed);
        let stimuli: Vec<Stimulus> = (0..6).map(|_| random_stimulus(&mut rng, 120)).collect();
        let name = format!("fuzz#{netlist_seed}");
        assert_lockstep_identical(&name, &netlist, &stimuli);
        assert_captures_identical(&name, &netlist, &stimuli, netlist_seed * 1000);
    }
}

#[test]
fn batch_capture_is_group_invariant_beyond_64_lanes() {
    // 70 stimuli force two lane groups; every result must still equal its
    // scalar twin, and slicing the stimulus list differently (one call per
    // half) must produce the same bytes as one chunked call.
    let netlist = random_netlist(9);
    let mut rng = Prng::seed_from_u64(77);
    let stimuli: Vec<Stimulus> = (0..70).map(|_| random_stimulus(&mut rng, 30)).collect();
    let seeds: Vec<u64> = (0..70).collect();
    let model = PowerModel::default();
    let whole =
        capture_traces_by_domain_batch(&netlist, &model, &stimuli, &seeds).expect("captures");
    assert_eq!(whole.len(), 70);
    let (left, right) = stimuli.split_at(35);
    let mut split =
        capture_traces_by_domain_batch(&netlist, &model, left, &seeds[..35]).expect("captures");
    split.extend(
        capture_traces_by_domain_batch(&netlist, &model, right, &seeds[35..]).expect("captures"),
    );
    for (k, (a, b)) in whole.iter().zip(&split).enumerate() {
        assert_eq!(a.functional, b.functional, "stimulus {k}");
        assert_eq!(a.total, b.total, "stimulus {k}");
        assert_eq!(a.by_domain, b.by_domain, "stimulus {k}");
    }
    let scalar = capture_traces_by_domain(&netlist, &model, &stimuli[64], seeds[64])
        .expect("scalar captures");
    assert_eq!(whole[64].total, scalar.total, "second-group lane diverges");
}

#[test]
fn batch_engine_matches_scalar_at_every_lane_width() {
    // Both sides of the narrow/wide accumulation split, and partial and
    // full lane words, with ragged stimulus lengths in every group.
    for (netlist_seed, lanes) in [
        (11u64, 1usize),
        (12, 3),
        (13, 8),
        (14, 9),
        (15, 63),
        (16, 64),
    ] {
        let netlist = random_netlist(netlist_seed);
        let mut rng = Prng::seed_from_u64(0xBEEF ^ netlist_seed);
        let stimuli: Vec<Stimulus> = (0..lanes)
            .map(|_| {
                let cycles = rng.range_usize(12..40);
                random_stimulus(&mut rng, cycles)
            })
            .collect();
        let name = format!("fuzz#{netlist_seed} at {lanes} lanes");
        assert_lockstep_identical(&name, &netlist, &stimuli);
        assert_captures_identical(&name, &netlist, &stimuli, netlist_seed * 7);
    }
}

#[test]
fn batch_engine_matches_scalar_on_multiply_driven_nets() {
    // A netlist that fails validation — two cells drive one net — still
    // simulates (lenient training captures it). Both engines must agree on
    // what it does: every driver writes the net in tape order.
    for netlist_seed in [21u64, 22] {
        let clean = random_netlist(netlist_seed);
        let target = clean.gates()[clean.gates().len() / 2].output;
        let source = clean.gates()[0].output;
        let mut text = Vec::new();
        write_verilog(&clean, &mut text).expect("writes to memory");
        let text = String::from_utf8(text)
            .expect("writer emits utf-8")
            .replace(
                "endmodule",
                &format!(
                    "  buf  g9998 (n{}, n{});\n  not  g9999 (n{}, 1'b0);\nendmodule",
                    target.index(),
                    source.index(),
                    source.index()
                ),
            );
        let netlist = parse_verilog(&text).expect("defective netlist still parses");
        assert!(netlist.validate().is_err(), "the splice must add drivers");
        let mut rng = Prng::seed_from_u64(0xD0D0 ^ netlist_seed);
        let stimuli: Vec<Stimulus> = (0..5).map(|_| random_stimulus(&mut rng, 60)).collect();
        let name = format!("multi-driver#{netlist_seed}");
        assert_lockstep_identical(&name, &netlist, &stimuli);
        assert_captures_identical(&name, &netlist, &stimuli, netlist_seed);
    }
}

#!/usr/bin/env sh
# The CI gate: the one list of checks, run as is locally and by
# .github/workflows/ci.yml, which only sets up the runner.
#
# The workspace is fully offline-safe: every check below runs with
# --offline and must succeed with no network and no registry cache.
set -eu

echo "==> ci.yml sets up the runner and calls this script, nothing else"
# A check written into the workflow would run on GitHub only, and a
# local ./ci.sh would never see it.
if grep -nE '(^|[^[:alnum:]_-])cargo[[:space:]]' .github/workflows/ci.yml; then
    echo "ci.yml runs cargo itself; add the check to ci.sh instead"; exit 1
fi
GATE_STEPS="$(grep -E '^[[:space:]]*(- )?run:' .github/workflows/ci.yml \
    | grep -v 'run: rustup toolchain install ' | sed 's/^[[:space:]]*\(- \)\{0,1\}//')"
[ "$GATE_STEPS" = "run: ./ci.sh" ] \
    || { echo "ci.yml must have exactly one gate step, run: ./ci.sh"; exit 1; }

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --offline --release
cargo test --offline -q

echo "==> member crates: unit and integration tests of crates/*"
# `cargo test` above tests only the root package; the member crates'
# own tests (psm-analyze's NL011 oracle units, psm-mining's proptests,
# ...) run here. The root package is excluded because tier-1 ran it.
cargo test --offline --workspace --exclude psmgen -q

echo "==> psm-core: ten-million-pair differential test of the merge decision"
# The tabulated critical-value decision of MergePolicy must agree with the
# full t-tests on every pair; the large case is #[ignore]d in the default
# run and takes about a minute in release.
cargo test --offline --release -p psm-core -- --ignored

echo "==> psmperf: the long-run benchmark still builds and passes its smoke test"
# psmperf is a package of its own, so the workspace build above never
# compiles it; an API change in psmgen would otherwise break the
# benchmark unnoticed.
cargo test --offline --release --manifest-path psmperf/Cargo.toml

echo "==> rustdoc: no warnings, doc-tests pass"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
cargo test --offline --doc --workspace -q

echo "==> psmlint: generated netlist + freshly trained model"
# multsum_netlist.v is gitignored; the example regenerates it
# deterministically so a fresh checkout lints the same bytes.
cargo run --offline --release --example netlist_tools > /dev/null
./target/release/psmlint --deny-warnings multsum_netlist.v
./target/release/psmlint --json --demo target/psmlint-demo-model.json

echo "==> psmlint --list-codes: catalogue matches DIAGNOSTICS.md"
# Every code psmlint can emit must be documented, and no documented code
# may vanish from the binary: diff the machine-readable catalogue against
# the codes named in the DIAGNOSTICS.md tables, both directions.
./target/release/psmlint --list-codes | awk '{print $1}' | sort \
    > target/psmlint-codes.txt
grep -oE '^\| (NL|TR|PS|HM|XA|MC|PD)[0-9]{3} ' DIAGNOSTICS.md \
    | tr -d '| ' | sort > target/psmlint-doc-codes.txt
diff -u target/psmlint-doc-codes.txt target/psmlint-codes.txt \
    || { echo "DIAGNOSTICS.md and psmlint --list-codes disagree"; exit 1; }

echo "==> psmlint: SARIF over the demo defect set, gated on new findings"
# defective.v and powerintent_defect.v carry known, baselined findings;
# the run fails only when a finding appears that
# examples/artifacts/psmlint-baseline.json does not record. The SARIF
# document itself lands in target/ for inspection.
./target/release/psmlint --format sarif \
    --baseline examples/artifacts/psmlint-baseline.json \
    examples/artifacts/defective.v examples/artifacts/powerintent_defect.v \
    multsum_netlist.v > target/psmlint.sarif

echo "==> psmlint --verify: bounded model checking of the mined assertions"
# The checked-in defect pair must keep its MC001/MC002 findings — all of
# them are baselined, so a gated run passes only if the verdicts are
# byte-for-byte reproducible. The fresh multsum model must verify with
# no errors in abstract mode.
./target/release/psmlint --quiet --verify \
    --baseline examples/artifacts/psmlint-baseline.json \
    examples/artifacts/defective.v \
    examples/artifacts/verify_defect.v examples/artifacts/verify_defect.json
./target/release/psmlint --quiet --verify \
    multsum_netlist.v target/psmlint-demo-model.json
# Witness round trip: --verify saves counterexample stimuli as CSV, and
# --replay must re-simulate the first one to a confirmed violation
# (exit 1 is the expected "real finding" outcome of both runs).
rm -rf target/psm-witness && mkdir -p target/psm-witness
if ./target/release/psmlint --quiet --verify --witness-dir target/psm-witness \
    examples/artifacts/verify_defect.v examples/artifacts/verify_defect.json \
    > /dev/null
then echo "expected the defect pair to fail --verify"; exit 1; fi
if ./target/release/psmlint --quiet --replay target/psm-witness/witness_001.csv \
    examples/artifacts/verify_defect.v examples/artifacts/verify_defect.json \
    | grep -q "replay confirms the violation"
then echo "    witness replays to a violation"
else echo "expected the witness to replay"; exit 1; fi

# Serves registry $1 on an ephemeral loopback port, written to the port
# file $2, and sets PSMD_PID and PSMD_ADDR. Until stop_psmd, an EXIT trap
# kills the daemon, so a check failing in between leaves none behind.
start_psmd() {
    ./target/release/psmd --registry "$1" --addr 127.0.0.1:0 --port-file "$2" &
    PSMD_PID=$!
    trap 'kill "$PSMD_PID" 2>/dev/null || true' EXIT
    for _ in $(seq 1 50); do
        [ -s "$2" ] && break
        sleep 0.1
    done
    PSMD_ADDR="$(cat "$2")"
}

stop_psmd() {
    ./target/release/psmctl --addr "$PSMD_ADDR" shutdown
    wait "$PSMD_PID"   # psmd must drain and exit 0
    trap - EXIT
}

echo "==> psmd: loopback smoke test (serve, estimate, stream, stats, clean exit)"
rm -rf target/psmd-smoke && mkdir -p target/psmd-smoke
# The demo model is deterministic: serve the one the psmlint step trained.
cp target/psmlint-demo-model.json target/psmd-smoke/demo@1.json
start_psmd target/psmd-smoke target/psmd-smoke/port
./target/release/psmctl --addr "$PSMD_ADDR" ping
./target/release/psmctl --addr "$PSMD_ADDR" estimate demo \
    --gen MultSum:7:500 --format json > target/psmd-smoke/estimate.json
# The same workload streamed in two+ chunks must reproduce the one-shot
# estimate bit for bit.
./target/release/psmctl --addr "$PSMD_ADDR" estimate demo \
    --gen MultSum:7:500 --stream --chunks 250 --format json \
    > target/psmd-smoke/streamed.json
cmp target/psmd-smoke/estimate.json target/psmd-smoke/streamed.json
./target/release/psmctl --addr "$PSMD_ADDR" bench demo \
    --gen MultSum:7:200 --clients 2 --streams 2 --rounds 3 \
    --format json > /dev/null
./target/release/psmctl --addr "$PSMD_ADDR" stats > /dev/null
# The JSON report carries the fixed per-job time counters.
./target/release/psmctl --addr "$PSMD_ADDR" stats --format json \
    > target/psmd-smoke/stats.json
grep -q serve.estimate_ns target/psmd-smoke/stats.json
stop_psmd

echo "==> psmd: legacy artifacts serve their recorded answers bit for bit"
# psmd compiles every model at load and ignores a v3 file's compiled
# section. Serve the legacy fixture an earlier build wrote and a v3 copy
# of the smoke artifact (its header rewritten), check that both list at
# format 3, and require the copy to estimate the workload to the same
# bytes as the v2 run above. Serve too the v2 model an earlier build
# wrote with every copy of its chains listed (loading folds them into
# counts), and require its estimate to match, byte for byte, the one
# that build served, checked in beside it.
rm -rf target/psmd-smoke-v3 && mkdir -p target/psmd-smoke-v3
cp examples/artifacts/verify_defect_legacy_v3.json target/psmd-smoke-v3/legacy@1.json
cp examples/artifacts/multsum_duplicate_chains.json target/psmd-smoke-v3/
sed '1s|^psmgen-artifact/v2$|psmgen-artifact/v3|' \
    target/psmd-smoke/demo@1.json > target/psmd-smoke-v3/demo@1.json
head -n 1 target/psmd-smoke-v3/demo@1.json | grep -qx 'psmgen-artifact/v3'
start_psmd target/psmd-smoke-v3 target/psmd-smoke/v3-port
./target/release/psmctl --addr "$PSMD_ADDR" list > target/psmd-smoke/v3-list.txt
grep -q 'legacy@1  format v3' target/psmd-smoke/v3-list.txt
grep -q 'demo@1  format v3' target/psmd-smoke/v3-list.txt
grep -q 'multsum_duplicate_chains@1  format v2' target/psmd-smoke/v3-list.txt
./target/release/psmctl --addr "$PSMD_ADDR" estimate demo \
    --gen MultSum:7:500 --format json > target/psmd-smoke/v3-estimate.json
cmp target/psmd-smoke/estimate.json target/psmd-smoke/v3-estimate.json
./target/release/psmctl --addr "$PSMD_ADDR" estimate multsum_duplicate_chains \
    --gen MultSum:11:1000 --format json > target/psmd-smoke/legacy-chains-estimate.json
cmp examples/artifacts/multsum_duplicate_chains.estimate.json \
    target/psmd-smoke/legacy-chains-estimate.json
stop_psmd

echo "==> scaling: parallel training gives byte-identical models at every worker count"
PSM_SCALING_STIMULI=4 PSM_SCALING_CYCLES=400 cargo bench --offline -p psm-bench --bench scaling

echo "==> psmbench: quick regression gate vs checked-in baseline"
cargo build --offline --release -p psm-bench --bin psmbench
# The thread-scaling gate needs two cores; on a 1-core host psmbench
# skips it with a note.
./target/release/psmbench --quick --out target/BENCH_ci.json \
    --baseline BENCH_psmgen.json --max-regress 25 --min-flow-speedup 1.2

echo "CI gate passed"

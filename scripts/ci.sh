#!/usr/bin/env bash
# Full CI gate: release build, tests, lints, formatting.
#
# The build is hermetic (no registry access); --offline keeps cargo from
# trying the network. SEGSCOPE_THREADS caps the experiment engine's
# worker count if the CI host is oversubscribed.
set -euo pipefail
cd "$(dirname "$0")/.."

# require_keys FILE KEY... — fails unless FILE mentions every "KEY".
require_keys() {
    local file="$1"
    shift
    local key
    for key in "$@"; do
        if ! grep -q "\"$key\"" "$file"; then
            echo "$file missing key \"$key\"" >&2
            exit 1
        fi
    done
}

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> lane tanh vs libm tanhf: all 2^32 inputs (release)"
# The LSTM gate step's tanh is a branch-free port of the host libm's
# tanhf (glibc 2.36, x86-64), the function the gate step called through
# f32::tanh before. This pins the port to that libm bit for bit over
# every input, NaNs included; a host whose libm rounds tanhf differently
# fails here. About a minute on two threads.
cargo test -q --offline --release -p nnet --lib -- --ignored \
    lane_tanh_matches_libm_on_every_bit_pattern

echo "==> lane sigmoid vs libm 1/(1 + expf(-x)): all 2^32 inputs (release)"
# The gate step's sigmoid runs over a port of glibc 2.36's FMA expf
# (`__expf_fma`, five fused multiply-adds), built for x86-64-v3. This
# pins it to the scalar libm form bit for bit over every input, NaNs
# included; a host whose libm resolves expf to another variant fails
# here. About a minute on two threads.
cargo test -q --offline --release -p nnet --lib -- --ignored \
    lane_sigmoid_matches_libm_on_every_bit_pattern

echo "==> quickstart example (release)"
cargo run --release --offline --example quickstart >/dev/null

echo "==> segscope CLI (release): list + per-scenario run smoke"
cargo build --release --offline --bin segscope
SEGSCOPE="target/release/segscope"

echo "==> e2e benchmark smoke tests"
# The end-to-end benchmark is a workspace of its own that builds against
# the crates by path; its tests are the only check that a public-API
# change left it compiling and running.
cargo test -q --offline --manifest-path e2e/Cargo.toml

echo "==> hostile JSON input (deep nesting) is an error, not an abort"
head -c 200000 /dev/zero | tr '\0' '[' > target/ci.deep.spec.json
rm -rf target/ci-deep
if "$SEGSCOPE" campaign run --spec target/ci.deep.spec.json --out target/ci-deep \
    --trials 1 2> target/ci.deep.err; then
    echo "segscope accepted a 200000-deep spec" >&2
    exit 1
fi
grep -q "nesting too deep" target/ci.deep.err || {
    echo "segscope did not reject the deep spec with a parse error" >&2
    exit 1
}

echo "==> out-of-range scenario params are an error, not a panic"
# The spectre defaults with an empty secret: the trial body asserts a
# non-empty secret, so the params check must refuse it first (exit 1, not
# a panic's 101) and name the field.
EMPTY_SECRET='{"attack":{"gadgets":60,"mistrain_calls":5,"oob_attempts":12,
  "rounds_per_candidate":1,"calibration":80,"candidates":128,"fault_plan":null},"secret":""}'
status=0
"$SEGSCOPE" run spectre --params "$EMPTY_SECRET" 2> target/ci.range.err >/dev/null || status=$?
if [[ "$status" != 1 ]]; then
    echo "segscope run spectre with an empty secret exited $status, not 1" >&2
    exit 1
fi
grep -q '`secret`' target/ci.range.err || {
    echo "segscope did not name the out-of-range field" >&2
    exit 1
}
"$SEGSCOPE" list >/dev/null
for name in $("$SEGSCOPE" list --names); do
    echo "--> segscope run $name (untraced, then traced on 2 threads)"
    # Repetition scenarios take --trials 2; structured ones (trial count
    # fixed by the config) ignore it and run their quick() defaults.
    # Traced and untraced runs share one trial body, so their reports
    # must be byte-identical.
    "$SEGSCOPE" run "$name" --trials 2 --report "target/ci.$name.report.json" >/dev/null
    "$SEGSCOPE" run "$name" --trials 2 --threads 2 --trace-out "target/ci.$name.trace.json" \
        --report "target/ci.$name.traced.report.json" >/dev/null
    cmp "target/ci.$name.report.json" "target/ci.$name.traced.report.json" || {
        echo "segscope run $name: traced report differs from the untraced one" >&2
        exit 1
    }
done

echo "==> enclave scenarios + countermeasure smoke (release)"
# The enclave studies under each armed defense, plus the no-op warning
# path for a scenario whose config carries no machine.
"$SEGSCOPE" run aexcount --seed 0xAE0 --trials 2 >/dev/null
"$SEGSCOPE" run heckler --seed 0x4EC --trials 2 >/dev/null
for defense in none quanshield padding; do
    "$SEGSCOPE" run aexcount --seed 0xAE0 --trials 2 --defense "$defense" >/dev/null
    "$SEGSCOPE" run heckler --seed 0x4EC --trials 2 --defense "$defense" >/dev/null
done
"$SEGSCOPE" describe heckler > target/ci.describe.txt
grep -q "defenses: none, quanshield, padding" target/ci.describe.txt || {
    echo "segscope describe does not list the defense axis" >&2
    exit 1
}

echo "==> segscope CLI golden report diff (covert + six scenarios)"
# Each report is pinned byte for byte at one seed and trial count. The
# five scenarios not listed here are pinned by tests/golden_enclave.rs.
GOLDEN_REPORTS="covert circl spectral kaslr spectre keystroke procfp"
for name in $GOLDEN_REPORTS; do
    "$SEGSCOPE" run "$name" --seed 0xC07E --trials 2 --threads 2 \
        --report "target/$name.report.json" >/dev/null
    if [[ "${SEGSCOPE_BLESS:-0}" == "1" ]]; then
        cp "target/$name.report.json" "tests/golden/$name.report.json"
        echo "blessed tests/golden/$name.report.json"
    elif ! cmp -s "target/$name.report.json" "tests/golden/$name.report.json"; then
        echo "segscope run $name report drifted from tests/golden/$name.report.json;" >&2
        echo "if intentional: SEGSCOPE_BLESS=1 scripts/ci.sh (or cp target/$name.report.json tests/golden/)" >&2
        exit 1
    fi
done

echo "==> segscope serve-bench smoke + golden verdict diff"
# The streaming-serving smoke: batched and sequential serving must
# agree on the verdict FNV (the binary hard-errors on divergence), and
# the whole report — verdict hashes included — must match the
# checked-in golden byte for byte.
"$SEGSCOPE" serve-bench --out target/serve.report.json >/dev/null
if [[ "${SEGSCOPE_BLESS:-0}" == "1" ]]; then
    cp target/serve.report.json tests/golden/serve.report.json
    echo "blessed tests/golden/serve.report.json"
elif ! cmp -s target/serve.report.json tests/golden/serve.report.json; then
    echo "segscope serve-bench report drifted from tests/golden/serve.report.json;" >&2
    echo "if intentional: SEGSCOPE_BLESS=1 scripts/ci.sh (or cp target/serve.report.json tests/golden/)" >&2
    exit 1
fi

echo "==> segscope_trace example (release) + golden trace diff"
SEGSCOPE_TRACE=target/keystroke.trace.json \
    cargo run --release --offline --example segscope_trace >/dev/null
if ! cmp -s target/keystroke.trace.json tests/golden/keystroke.trace.json; then
    echo "segscope_trace output drifted from tests/golden/keystroke.trace.json;" >&2
    echo "if intentional: cp target/keystroke.trace.json tests/golden/keystroke.trace.json" >&2
    exit 1
fi

# golden_gate [--test NAME]... — re-asserts every checked-in golden
# byte-identical with blessing explicitly disabled, so a blessed CI run
# can never mask drift: the golden_trace test (plus any extra test
# binaries named), the CLI reports, the keystroke trace and serve-bench.
golden_gate() {
    SEGSCOPE_BLESS=0 cargo test -q --offline --test golden_trace "$@"
    for name in $GOLDEN_REPORTS; do
        SEGSCOPE_BLESS=0 "$SEGSCOPE" run "$name" --seed 0xC07E --trials 2 --threads 2 \
            --report "target/$name.report.determinism.json" >/dev/null
        cmp "target/$name.report.determinism.json" "tests/golden/$name.report.json"
    done
    SEGSCOPE_BLESS=0 SEGSCOPE_TRACE=target/keystroke.trace.determinism.json \
        cargo run --release --offline --example segscope_trace >/dev/null
    cmp target/keystroke.trace.determinism.json tests/golden/keystroke.trace.json
    SEGSCOPE_BLESS=0 "$SEGSCOPE" serve-bench \
        --out target/serve.report.determinism.json >/dev/null
    cmp target/serve.report.determinism.json tests/golden/serve.report.json
}

echo "==> golden determinism gate (no SEGSCOPE_BLESS)"
golden_gate

echo "==> golden determinism gate again under glibc's generic libm"
# With AVX2 and FMA masked from glibc's dispatch, libm resolves its
# generic, non-FMA variants (expf among them), as on a pre-Haswell CPU;
# the program's own x86-64-v3 code is unchanged. Every golden must stay
# byte-identical, so none depends on which libm variant the host picks.
# golden_enclave adds the trained website and dnnsteal reports. Under a
# second on two threads with the test binaries built.
GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA golden_gate --test golden_enclave

echo "==> paper harnesses (quick): every table/figure shape check + golden stdout"
# Each harness prints one paper table or figure and asserts its shape
# (orderings, ratios, crossovers); a failed assertion exits non-zero.
# Their stdout holds simulated quantities only, identical at any
# SEGSCOPE_THREADS, so each is pinned byte for byte in
# tests/golden/bench/<harness>.txt.
mkdir -p target/bench-golden
for path in crates/bench/benches/{table,fig,ext}*.rs; do
    bench="$(basename "$path" .rs)"
    echo "--> $bench"
    out="target/bench-golden/$bench.txt"
    cargo bench -q --offline -p segscope-bench --bench "$bench" > "$out"
    if [[ "${SEGSCOPE_BLESS:-0}" == "1" ]]; then
        cp "$out" "tests/golden/bench/$bench.txt"
        echo "blessed tests/golden/bench/$bench.txt"
    elif ! cmp -s "$out" "tests/golden/bench/$bench.txt"; then
        echo "$bench stdout drifted from tests/golden/bench/$bench.txt;" >&2
        echo "if intentional: SEGSCOPE_BLESS=1 scripts/ci.sh (or cp $out tests/golden/bench/)" >&2
        exit 1
    fi
done

echo "==> bench records (quick): BENCH_<bench>.json schema + validate()"
# Each harness writes its record, then validates it and exits non-zero on
# a violation: every digest-carrying arm of a layer agrees (cached vs
# naive fabric, probe_n vs probe_n_into, recycled vs fresh trials,
# serial vs parallel engine, campaign shards 1/4/8, batched vs sequential
# serving), every rate is positive, every armed gate meets
# its bar. Multi-core gates (campaign >= 2x, serve >= 3x) arm on hosts
# with more than one thread.
for bench in bench_hotpath bench_parallel bench_campaign bench_serve; do
    echo "--> $bench"
    record="target/BENCH_${bench#bench_}.json"
    SEGSCOPE_BENCH_JSON="$record" \
        cargo bench -q --offline -p segscope-bench --bench "$bench" >/dev/null
    require_keys "$record" bench host threads arms gates
done

echo "==> segscope campaign smoke: sweep, kill, resume, report"
# A 2-scenario x 2-preset grid: run it whole at shards 2, 1 and 8, then
# stop a second copy mid-run, resume it at a different shard count, and
# require every report file byte-identical. Also gates the report JSON
# schema. (The real-SIGKILL and corrupted-cell-log evidence is
# tests/campaign_kill.rs, run by `cargo test` above.)
CAMP_SPEC='{"name":"ci-smoke","seed":193,
  "scenarios":[{"scenario":"kaslr","params":null},{"scenario":"covert","params":null}],
  "presets":["lenovo_yangtian","amazon_t2_large"],
  "faults":[{"name":"none","plan":null},
            {"name":"delivery_storm","plan":{"drop_prob":0.15,"duplicate_prob":0.08,
             "duplicate_delay":50000000,"coalesce_window":800000000,"handler_jitter_std":0,
             "freq_step_clamp_khz":null,"smt_burst_prob":0,"smt_burst_factor":1,"smt_burst_ops":0}}],
  "replicates":1,"trials":null}'
rm -rf target/ci-campaign target/ci-campaign-killed
echo "$CAMP_SPEC" > target/ci-campaign.spec.json
"$SEGSCOPE" campaign run --spec target/ci-campaign.spec.json --trials 2 \
    --out target/ci-campaign --shards 2 >/dev/null
"$SEGSCOPE" campaign status --out target/ci-campaign > target/ci.camp-status.txt
grep -q "8/8 cells complete" target/ci.camp-status.txt || {
    echo "campaign status does not report completion" >&2
    exit 1
}
# One worker, and more workers than cells: the same report bytes.
for shards in 1 8; do
    rm -rf "target/ci-campaign-$shards"
    "$SEGSCOPE" campaign run --spec target/ci-campaign.spec.json --trials 2 \
        --out "target/ci-campaign-$shards" --shards "$shards" >/dev/null
    cmp target/ci-campaign/report.json "target/ci-campaign-$shards/report.json" || {
        echo "campaign report at --shards $shards differs from --shards 2" >&2
        exit 1
    }
done
"$SEGSCOPE" campaign run --spec target/ci-campaign.spec.json --trials 2 \
    --out target/ci-campaign-killed --shards 3 --stop-after-waves 1 >/dev/null
# A cut run (at most 1 x 3 cells) leaves its cells in cells.log,
# uncompacted: the 3/8 count can only come from reading the log on top
# of the empty manifest.json.
[[ -f target/ci-campaign-killed/cells.log ]] || {
    echo "a cut campaign left no cells.log" >&2
    exit 1
}
"$SEGSCOPE" campaign status --out target/ci-campaign-killed > target/ci.camp-status.txt
grep -q "3/8 cells complete" target/ci.camp-status.txt || {
    echo "campaign status does not count the cells in cells.log" >&2
    exit 1
}
if "$SEGSCOPE" campaign report --out target/ci-campaign-killed >/dev/null 2>&1; then
    echo "campaign report accepted an incomplete manifest" >&2
    exit 1
fi
# status and report read the persisted spec: a run flag is refused, not
# silently dropped.
status=0
"$SEGSCOPE" campaign report --out target/ci-campaign \
    --spec target/ci-campaign.spec.json 2> target/ci.camp-flag.err >/dev/null || status=$?
if [[ "$status" != 1 ]] || ! grep -q -- '`--spec`' target/ci.camp-flag.err; then
    echo "campaign report --spec exited $status without naming --spec" >&2
    exit 1
fi
"$SEGSCOPE" campaign resume --out target/ci-campaign-killed --shards 8 >/dev/null
[[ ! -e target/ci-campaign-killed/cells.log ]] || {
    echo "a finished campaign kept its cells.log" >&2
    exit 1
}
cmp target/ci-campaign/report.json target/ci-campaign-killed/report.json || {
    echo "killed+resumed campaign report differs from the uninterrupted one" >&2
    exit 1
}
# The merged report must carry the schema campaign consumers read.
require_keys target/ci-campaign/report.json name seed spec_digest cells totals \
    fault_log matrix cell_results scenario preset fault replicate report \
    ground_truth_deliveries delivery_faults timing_faults

echo "==> segscope campaign defense matrix: spec, run, report schema"
# The enclave attack x defense matrix end to end at low trial count:
# emit the spec via --defense-matrix, run it sharded, and require the
# merged report to carry the defense axis and per-row accuracy.
rm -rf target/ci-matrix
"$SEGSCOPE" campaign spec --defense-matrix --seed 0xDEF1 \
    --out target/ci-matrix.spec.json >/dev/null
grep -q '"defenses"' target/ci-matrix.spec.json || {
    echo "defense-matrix spec missing the defenses axis" >&2
    exit 1
}
"$SEGSCOPE" campaign run --spec target/ci-matrix.spec.json --trials 2 \
    --out target/ci-matrix --shards 3 >/dev/null
require_keys target/ci-matrix/report.json defense mean_accuracy accuracy_cells \
    quanshield padding

echo "==> snapshot fuzz gate (release, random pause points)"
# The restore-exactness proptests at release optimization: presets ×
# fault plans × random pause points through a full JSON cycle, plus the
# record/replay/bisect suite in the umbrella crate.
cargo test -q --offline --release --test snapshot_roundtrip
cargo test -q --offline --release --lib -p segscope-repro replay

echo "==> segscope snapshot/replay round trip + recording schema"
"$SEGSCOPE" snapshot --machine lenovo_savior --seed 0x51AB --spans 32 \
    --every 8 --out target/ci.rec.json >/dev/null
"$SEGSCOPE" replay --in target/ci.rec.json --from 40 >/dev/null
# The serialized recording must carry the schema replay consumers read:
# the spec, the event stream, and the snapshot ladder down to the
# machine image's RNG position and fabric state.
require_keys target/ci.rec.json spec events snapshots final_digest machine seed \
    spans event_index digest snapshot rng_state now fabric
# And the bisector must localize a single injected fault. Capture to a
# file first: grep -q on a pipe exits at the first match and the closed
# pipe kills the still-printing binary with EPIPE.
"$SEGSCOPE" bisect --machine lenovo_savior --seed 9 --spans 24 \
    --inject-b 40000:gpu > target/ci.bisect.txt
grep -q "first divergence at event" target/ci.bisect.txt || {
    echo "segscope bisect failed to localize an injected fault" >&2
    exit 1
}

if [[ "${SEGSCOPE_OBS_FULL:-0}" == "1" ]]; then
    echo "==> obs 16M-event stress pass (SEGSCOPE_OBS_FULL=1)"
    cargo test -q --offline -p obs --release -- --include-ignored
fi

if [[ "${SEGSCOPE_CONFORMANCE_FULL:-0}" == "1" ]]; then
    echo "==> full conformance sweep (SEGSCOPE_CONFORMANCE_FULL=1)"
    cargo test -q --offline -p conformance --release -- --include-ignored
fi

echo "==> cargo doc -D warnings"
# The compat/ stand-ins mirror third-party doc text we don't own; the
# gate covers every crate we write.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps \
    --exclude rand --exclude serde --exclude serde_derive \
    --exclude serde_json --exclude proptest >/dev/null

echo "==> cargo clippy -D warnings"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "CI OK"

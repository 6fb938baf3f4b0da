#!/usr/bin/env bash
# Tier-1 verification gate, runnable offline (no registry access: the
# workspace has no external dependencies).
#
#   scripts/ci.sh          # fmt + clippy + build + debug tests
#   scripts/ci.sh --full   # additionally: release tests including the
#                          # release-only zero-allocation gate, and a
#                          # paper-scale regeneration of results/
#
# The debug path is the canonical tier-1 entry point:
#   cargo build --release && cargo test -q

set -euo pipefail
cd "$(dirname "$0")/.."

# Under GOLDEN_REGEN the golden tests rewrite the committed goldens.
if [[ -n "${GOLDEN_REGEN+set}" ]]; then
    echo "GOLDEN_REGEN is set: the tests would rewrite the committed goldens; unset it to run CI" >&2
    exit 1
fi

full=0
[[ "${1:-}" == "--full" ]] && full=1

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets) =="
cargo clippy --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== reproduction gate (miopt-harness check on results/) =="
# Every shape check on the committed figures passes or fails for its
# known deviation; any other verdict exits 1.
cargo run --release -q -p miopt-harness -- check | tail -1

echo "== cargo test -q =="
tier1_start=$SECONDS
cargo test -q
echo "tier-1 tests: $((SECONDS - tier1_start)) s"

echo "== cargo doc --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "== telemetry smoke run =="
# One tiny sweep with telemetry on: the CLI must emit a non-empty JSONL
# series and Chrome trace per job.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release -q -p miopt-harness -- \
    --scale quick --only FwSoft --fig6 --no-cache --quiet \
    --telemetry=20000 --out "$smoke_dir" --sweep-name smoke >/dev/null
test -s "$smoke_dir/smoke-telemetry/FwSoft-Uncached.jsonl"
test -s "$smoke_dir/smoke-telemetry/FwSoft-Uncached.trace.json"
test -s "$smoke_dir/smoke-telemetry/FwSoft-CacheRW.jsonl"
echo "telemetry smoke run ok"

echo "== invariant-checked debug sweep =="
# Debug builds run the sentinel unconditionally; pass --check-invariants
# anyway so the flag path itself is exercised. Any conservation slip or
# watchdog trip fails the job and (via the nonzero harness exit) the gate.
cargo run -q -p miopt-harness -- \
    --scale quick --only FwSoft --fig6 --no-cache --no-journal --quiet \
    --check-invariants --out "$smoke_dir" --sweep-name checked >/dev/null
grep -q '"status": "ok"' "$smoke_dir/checked.json"
echo "invariant-checked sweep ok"

echo "== the whole quick grid under the sentinel (release) =="
# Every workload x policy with invariant sweeps and the forward-progress
# watchdog on: a conservation slip, or a watchdog that trips on a run
# that is still making progress, fails its job and this step.
cargo run --release -q -p miopt-harness -- \
    --scale quick --all --check-invariants --no-cache --no-journal --quiet \
    --out "$smoke_dir" --sweep-name checked-all >/dev/null
jobs=$(grep -c '"status": ' "$smoke_dir/checked-all.json")
ok=$(grep -c '"status": "ok"' "$smoke_dir/checked-all.json" || true)
if [[ "$jobs" -eq 0 || "$ok" -ne "$jobs" ]]; then
    echo "checked quick grid: $ok of $jobs jobs ok" >&2
    exit 1
fi
echo "checked quick grid ok ($ok jobs)"

echo "== journal crash-injection loop (seeded SIGKILLs + --resume byte-identity) =="
# Reference: an uninterrupted journaled run of a small 6-job grid. Then,
# for each kill point k, start the same sweep serialized, SIGKILL it
# once k jobs have committed to the write-ahead store, inspect the store
# (query --journals must call it recoverable), resume, and require the
# final report to be byte-identical to the reference outside wall-clock
# and git provenance fields. The journal store and partial report must
# be gone once the report lands.
ref=crash-ref
cargo run --release -q -p miopt-harness -- \
    --scale paper --only FwPool,BwPool --fig6 --no-cache --quiet --jobs 1 \
    --out "$smoke_dir" --sweep-name "$ref" >/dev/null 2>&1
scrub() {
    grep -v '"sweep"\|"elapsed_ms"\|"started_unix_ms"\|"git_rev"\|"git_dirty"' "$1"
}
for k in 1 2 3; do
    rs="crash-$k"
    partial="$smoke_dir/$rs.partial.json"
    cargo run --release -q -p miopt-harness -- \
        --scale paper --only FwPool,BwPool --fig6 --no-cache --quiet --jobs 1 \
        --out "$smoke_dir" --sweep-name "$rs" >/dev/null 2>&1 &
    sweep_pid=$!
    for _ in $(seq 1 600); do
        [[ -f "$partial" && "$(grep -c '"id":' "$partial")" -ge "$k" ]] && break
        sleep 0.1
    done
    kill -9 "$sweep_pid" 2>/dev/null || true
    wait "$sweep_pid" 2>/dev/null || true
    if [[ ! -d "$smoke_dir/$rs.journal" ]]; then
        echo "crash loop: run $rs finished before SIGKILL; enlarge the grid" >&2
        exit 1
    fi
    cargo run --release -q -p miopt-harness -- query --journals \
        --dir "$smoke_dir" --run "$rs" >/dev/null
    cargo run --release -q -p miopt-harness -- \
        --scale paper --only FwPool,BwPool --fig6 --no-cache --quiet --jobs 1 \
        --out "$smoke_dir" --resume "$rs" >/dev/null 2>"$smoke_dir/$rs.log"
    grep -q "already journaled" "$smoke_dir/$rs.log"
    [[ "$(grep -c '"status": "ok"' "$smoke_dir/$rs.json")" -eq 6 ]]
    diff <(scrub "$smoke_dir/$ref.json") <(scrub "$smoke_dir/$rs.json")
    [[ ! -e "$smoke_dir/$rs.journal" && ! -e "$partial" ]]
    journaled=$(grep -o '[0-9]* of [0-9]* jobs' "$smoke_dir/$rs.log" | head -1 | cut -d' ' -f1)
    echo "crash point $k ok (${journaled:-?} job(s) journaled before SIGKILL, report byte-identical)"
done
# One serve kill point: the same SIGKILL + --resume dance on a 9-job
# serve grid. The resume spells the (default) tenants' workloads in
# lower case: names resolve to the same suite workloads, so the journal
# fingerprint and the report are unchanged.
serve_grid=(serve --loads 40000,20000,10000 --requests 8 --jobs 1 --quiet --out "$smoke_dir")
cargo run --release -q -p miopt-harness -- "${serve_grid[@]}" \
    --sweep-name serve-crash-ref >/dev/null 2>&1
partial="$smoke_dir/serve-crash.partial.json"
cargo run --release -q -p miopt-harness -- "${serve_grid[@]}" \
    --sweep-name serve-crash >/dev/null 2>&1 &
sweep_pid=$!
for _ in $(seq 1 600); do
    [[ -f "$partial" && "$(grep -c '"id":' "$partial")" -ge 1 ]] && break
    sleep 0.1
done
kill -9 "$sweep_pid" 2>/dev/null || true
wait "$sweep_pid" 2>/dev/null || true
if [[ ! -d "$smoke_dir/serve-crash.journal" ]]; then
    echo "crash loop: serve run finished before SIGKILL; enlarge the grid" >&2
    exit 1
fi
cargo run --release -q -p miopt-harness -- "${serve_grid[@]}" \
    --tenants t0=fwsoft,t1=fwpool --resume serve-crash >/dev/null 2>"$smoke_dir/serve-crash.log"
grep -q "already journaled" "$smoke_dir/serve-crash.log"
[[ "$(grep -c '"status": "ok"' "$smoke_dir/serve-crash.json")" -eq 9 ]]
diff <(scrub "$smoke_dir/serve-crash-ref.json") <(scrub "$smoke_dir/serve-crash.json")
[[ ! -e "$smoke_dir/serve-crash.journal" && ! -e "$partial" ]]
echo "serve crash point ok (report byte-identical)"
echo "crash-injection loop ok"

echo "== event-core equivalence spot check (default vs --no-skip, --jobs 2) =="
# The discrete-event core is the default engine; a --no-skip run of the
# same grid steps per cycle through the oracle and must produce
# byte-identical reports (modulo the header's wall-clock/provenance
# lines). The event-core run uses a 2-worker pool so the check crosses
# engine mode x job parallelism. The full cross-policy grid is pinned by
# harness/tests/equivalence.rs; this exercises the CLI flags end to end.
cargo run --release -q -p miopt-harness -- \
    --scale quick --only FwSoft --fig6 --no-cache --no-journal --quiet \
    --jobs 2 --out "$smoke_dir" --sweep-name skip-on >/dev/null
cargo run --release -q -p miopt-harness -- \
    --scale quick --only FwSoft --fig6 --no-cache --no-journal --quiet \
    --no-skip --out "$smoke_dir" --sweep-name skip-off >/dev/null
diff <(grep '"cycles"\|"status"' "$smoke_dir/skip-on.json") \
     <(grep '"cycles"\|"status"' "$smoke_dir/skip-off.json")
# The same diff on a saturated grid: FwAct and BwBN keep the L1 input
# queues full, so CUs sleep on backpressure and blocked cache units sleep
# on their full queues. The event core has to deliver the credit wakes
# the per-cycle loop gets for free, and to book the stall cycles of the
# retries it never made — so the stall counters are diffed as well.
cargo run --release -q -p miopt-harness -- \
    --scale quick --only FwAct,BwBN --fig6 --no-cache --no-journal --quiet \
    --jobs 2 --out "$smoke_dir" --sweep-name sat-on >/dev/null
cargo run --release -q -p miopt-harness -- \
    --scale quick --only FwAct,BwBN --fig6 --no-cache --no-journal --quiet \
    --no-skip --out "$smoke_dir" --sweep-name sat-off >/dev/null
sat='"cycles"\|"status"\|\.stall_\|\.alloc_bypasses"'
diff <(grep "$sat" "$smoke_dir/sat-on.json") <(grep "$sat" "$smoke_dir/sat-off.json")
if ! grep '\.stall_' "$smoke_dir/sat-on.json" | grep -qv ': 0,\?$'; then
    echo "saturated spot check: no job counted a cache stall" >&2
    exit 1
fi
# Telemetry samples land while units sleep: the stalls slept through so
# far must be in each sample, exactly as the oracle books them.
for mode in on off; do
    flag=""
    [[ "$mode" == off ]] && flag="--no-skip"
    cargo run --release -q -p miopt-harness -- \
        --scale quick --only FwAct --fig6 --no-cache --no-journal --quiet \
        --telemetry=500 $flag --out "$smoke_dir" --sweep-name "tel-$mode" >/dev/null
done
for f in "$smoke_dir"/tel-on-telemetry/*.jsonl; do
    cmp "$f" "$smoke_dir/tel-off-telemetry/$(basename "$f")"
done
[[ "$(ls "$smoke_dir"/tel-on-telemetry/*.jsonl | wc -l)" -eq 3 ]]
# Samples and sentinel checks on the same cycles (both every 4096): the
# run loop takes the sample, then the check, then the cycle's stages, in
# both engines, over a saturated and a multi-kernel grid.
for mode in on off; do
    flag=""
    [[ "$mode" == off ]] && flag="--no-skip"
    cargo run --release -q -p miopt-harness -- \
        --scale quick --only FwAct,FwGRU --fig6 --no-cache --no-journal --quiet \
        --check-invariants --telemetry=4096 $flag --out "$smoke_dir" \
        --sweep-name "telchk-$mode" >/dev/null
done
for f in "$smoke_dir"/telchk-on-telemetry/*; do
    cmp "$f" "$smoke_dir/telchk-off-telemetry/$(basename "$f")"
done
[[ "$(ls "$smoke_dir"/telchk-on-telemetry/*.jsonl | wc -l)" -eq 6 ]]
[[ "$(ls "$smoke_dir"/telchk-on-telemetry/*.trace.json | wc -l)" -eq 6 ]]
# A multi-kernel grid: FwGRU's 150 kernels each end in a drain, a release
# flush and an acquire self-invalidation (which trains the PC predictor
# under CacheRW-PCby), and in its latency-bound steps the event core
# dispatches the phase machine only for a response that releases a
# waitcnt or retires a wavefront. The grids above have one or two
# kernels per job.
cargo run --release -q -p miopt-harness -- \
    --scale quick --only FwGRU --fig10 --no-cache --no-journal --quiet \
    --jobs 2 --out "$smoke_dir" --sweep-name rnn-on >/dev/null
cargo run --release -q -p miopt-harness -- \
    --scale quick --only FwGRU --fig10 --no-cache --no-journal --quiet \
    --no-skip --out "$smoke_dir" --sweep-name rnn-off >/dev/null
rnn='"cycles"\|"status"\|\.stall_\|\.self_invalidations"\|\.flush_writebacks"\|\.predictor_bypasses"'
diff <(grep "$rnn" "$smoke_dir/rnn-on.json") <(grep "$rnn" "$smoke_dir/rnn-off.json")
if ! grep '\.self_invalidations"' "$smoke_dir/rnn-on.json" | grep -qv ': 0,\?$'; then
    echo "multi-kernel spot check: no job self-invalidated a line" >&2
    exit 1
fi
# DRAM-heavy multi-kernel grids: under Uncached every L2 fill passes
# straight through to a response, and between kernels DRAM idles, so the
# fill -> service wake of sleeping units only and DRAM's exact
# reschedule from its channels are both on this path. The FwGRU grid
# above is cached only; the DRAM row counters are diffed as well.
cargo run --release -q -p miopt-harness -- \
    --scale quick --only FwLSTM,FwBwGRU --fig6 --no-cache --no-journal --quiet \
    --jobs 2 --out "$smoke_dir" --sweep-name rnn-dram-on >/dev/null
cargo run --release -q -p miopt-harness -- \
    --scale quick --only FwLSTM,FwBwGRU --fig6 --no-cache --no-journal --quiet \
    --no-skip --out "$smoke_dir" --sweep-name rnn-dram-off >/dev/null
rnn_dram='"cycles"\|"status"\|\.stall_\|\.self_invalidations"\|\.flush_writebacks"\|"dram\.row_'
diff <(grep "$rnn_dram" "$smoke_dir/rnn-dram-on.json") <(grep "$rnn_dram" "$smoke_dir/rnn-dram-off.json")
if ! grep '"dram\.row_conflicts"' "$smoke_dir/rnn-dram-on.json" | grep -qv ': 0,\?$'; then
    echo "DRAM-heavy multi-kernel spot check: no job met a row conflict" >&2
    exit 1
fi
# The DRAM figures of the bandwidth-bound family under the sentinel, in
# both engines: FR-FCFS row locality is where the per-bank scheduler
# state and the cached channel wakes (`bank_masks_match_window`,
# `channel_wake_not_late`) and the crossbar's parked heads
# (`parked_heads`) are checked, in release, on saturated memory.
for mode in on off; do
    flag=""
    [[ "$mode" == off ]] && flag="--no-skip"
    cargo run --release -q -p miopt-harness -- \
        --fig9 --fig13 --scale quick --only FwAct,BwAct,FwLRN --check-invariants \
        --no-cache --no-journal --quiet $flag --out "$smoke_dir" \
        --sweep-name "rows-$mode" --csv "$smoke_dir/rows-$mode" >/dev/null
done
for f in "$smoke_dir"/rows-on/*.csv; do
    cmp "$f" "$smoke_dir/rows-off/$(basename "$f")"
done
[[ "$(ls "$smoke_dir"/rows-on/*.csv | wc -l)" -eq 2 ]]
echo "event-core equivalence ok"

echo "== two-tenant serving smoke (miopt-harness serve) =="
# A tiny invariant-checked serving sweep: two tenants with partitioned
# L2 ways, one policy column, a handful of requests. Every job must
# complete every request, and the report must carry the traffic
# provenance that ties a resume to identical arrivals.
cargo run --release -q -p miopt-harness -- serve \
    --policies CacheR --loads 40000 --requests 4 --partition \
    --check-invariants --budget 100000000 --quiet \
    --out "$smoke_dir" --sweep-name serve-smoke >/dev/null
test -s "$smoke_dir/serve-smoke.json"
grep -q '"status": "ok"' "$smoke_dir/serve-smoke.json"
grep -q '"arrivals_fingerprint"' "$smoke_dir/serve-smoke.json"
if grep -q '"completed": 0' "$smoke_dir/serve-smoke.json"; then
    echo "serve smoke: a tenant completed no requests" >&2
    exit 1
fi
# The serve journal store is cleaned up after a successful run.
[[ ! -e "$smoke_dir/serve-smoke.journal" && ! -e "$smoke_dir/serve-smoke.partial.json" ]]
# The same sweep under the --no-skip oracle. Serving re-enters the run
# loop once per batch and crosses idle gaps in between, so this is the
# CLI path that exercises run entry; every simulated field must match.
cargo run --release -q -p miopt-harness -- serve \
    --policies CacheR --loads 40000 --requests 4 --partition \
    --check-invariants --budget 100000000 --quiet --no-skip \
    --out "$smoke_dir" --sweep-name serve-oracle >/dev/null
diff <(scrub "$smoke_dir/serve-smoke.json") <(scrub "$smoke_dir/serve-oracle.json")
echo "serve smoke ok (default and --no-skip reports identical)"

echo "== query smoke (miopt-harness query) =="
# Aggregate the reports the sections above produced, slice the serve
# report per tenant, and confirm no journal stores were left behind.
cargo run --release -q -p miopt-harness -- query \
    --dir "$smoke_dir" --metric cycles --agg count,min,mean,p99 \
    >"$smoke_dir/query.txt"
grep -q "cycles" "$smoke_dir/query.txt"
rows=$(sed -n 's/^\([0-9][0-9]*\) row(s).*/\1/p' "$smoke_dir/query.txt")
[[ "${rows:-0}" -ge 1 ]]
# Redirect instead of piping into grep -q: a closed pipe EPIPE-kills
# the harness (see the SIGPIPE gotcha in the verify notes).
cargo run --release -q -p miopt-harness -- query \
    --dir "$smoke_dir" --run serve-smoke --metric p99 --agg count,max --json \
    >"$smoke_dir/query-serve.json"
grep -q '"count"' "$smoke_dir/query-serve.json"
cargo run --release -q -p miopt-harness -- query --journals --dir "$smoke_dir" \
    >"$smoke_dir/query-journals.txt"
grep -q "no journals" "$smoke_dir/query-journals.txt"
echo "query smoke ok"

echo "== refused arguments (exit 2, never a panic) =="
# One bad flag or value per subcommand: each must be refused with exit
# status 2, an `error:` line and the usage, never a panic (exit 101).
# `--retries` and `--timeout-secs` are gone (each job runs once, bounded
# by its simulated-cycle `--budget`): a script that still passes either
# is refused, not run differently. A zero budget is refused on both
# sweep commands, and so are a duplicate and an empty tenant name.
for bad in "--frobnicate" "serve --loads 0" "query --agg median" \
    "--retries 1" "serve --retries 1" "--timeout-secs 1" \
    "--budget 0" "serve --budget 0" \
    "serve --tenants a=FwSoft,a=FwPool" "serve --tenants =FwSoft" \
    "check --frobnicate"; do
    status=0
    # shellcheck disable=SC2086 # $bad is split into its words on purpose
    cargo run --release -q -p miopt-harness -- $bad >/dev/null 2>"$smoke_dir/refused.txt" || status=$?
    if [[ $status -ne 2 ]] || grep -q "panicked" "$smoke_dir/refused.txt" \
        || ! grep -q "^error: " "$smoke_dir/refused.txt" || ! grep -q "^usage: " "$smoke_dir/refused.txt"; then
        echo "refusal smoke: \`miopt-harness $bad\` exited $status:" >&2
        cat "$smoke_dir/refused.txt" >&2
        exit 1
    fi
done
echo "refused arguments ok"

echo "== executor smoke (--budget, --fail-fast) =="
# A 10 000-cycle budget halts every paper-scale FwLRN job, once, at the
# same simulated cycle on any host, and each halted job's record carries
# its stall diagnostic. With one worker and --fail-fast, the first halt
# cancels the two queued jobs. Both runs exit 1 and neither may panic.
executor() {
    local name=$1
    shift
    local status=0
    cargo run --release -q -p miopt-harness -- \
        --fig6 --only FwLRN --no-cache --no-journal --quiet "$@" \
        --out "$smoke_dir" --sweep-name "$name" >/dev/null 2>"$smoke_dir/$name.err" || status=$?
    if [[ $status -ne 1 ]] || grep -q "panicked" "$smoke_dir/$name.err"; then
        echo "executor smoke: \`$*\` exited $status:" >&2
        cat "$smoke_dir/$name.err" >&2
        exit 1
    fi
}
executor exec-budget --budget 10000
[[ "$(grep -c '"status": "FwLRN/.*: simulation exceeded 10000 cycles"' "$smoke_dir/exec-budget.json")" -eq 3 ]]
[[ "$(grep -c '"diagnostic": {' "$smoke_dir/exec-budget.json")" -eq 3 ]]
# The stderr failure list names each job once.
[[ "$(grep -c '^FwLRN/[^:]*: simulation exceeded 10000 cycles$' "$smoke_dir/exec-budget.err")" -eq 3 ]]
if grep -q 'FwLRN/[^:]*: FwLRN/' "$smoke_dir/exec-budget.err"; then
    echo "executor smoke: a failed job is named twice:" >&2
    cat "$smoke_dir/exec-budget.err" >&2
    exit 1
fi
if grep -q '"quarantined"' "$smoke_dir/exec-budget.json"; then
    echo "executor smoke: the report still has a \"quarantined\" key" >&2
    exit 1
fi
executor exec-ff --jobs 1 --budget 10000 --fail-fast
diff <(grep '"status"' "$smoke_dir/exec-ff.json") - <<'EOF'
      "status": "FwLRN/Uncached: simulation exceeded 10000 cycles",
      "status": "cancelled by fail-fast",
      "status": "cancelled by fail-fast",
EOF
# A serve job halted by its budget mid-kernel: the sweep exits 1, and
# the job's status is `serve run: ` and the halt's one-line status.
status=0
cargo run --release -q -p miopt-harness -- serve \
    --requests 2 --loads 60000 --policies CacheR --budget 20000 --no-journal --quiet \
    --out "$smoke_dir" --sweep-name serve-budget >/dev/null 2>"$smoke_dir/serve-budget.err" || status=$?
if [[ $status -ne 1 ]] || grep -q "panicked" "$smoke_dir/serve-budget.err"; then
    echo "executor smoke: the serve budget halt exited $status:" >&2
    cat "$smoke_dir/serve-budget.err" >&2
    exit 1
fi
[[ "$(grep -c '"status": "serve run: simulation exceeded 20000 cycles"' "$smoke_dir/serve-budget.json")" -eq 1 ]]
echo "executor smoke ok"

echo "== event-core perf smoke =="
# The event core must actually avoid work: a latency-bound uncached RNN
# run on the paper machine leaves a substantial share of its simulated
# cycles with no event dispatched at all. (Wall-clock ratios are too
# noisy for CI; the dispatch counters are exact.)
# The headline "N% event-free" figure; the per-stage dispatch
# histogram on the next line also carries % fields, so match the label.
# (No early exit: closing the pipe would EPIPE-kill the example.)
quiet=$(cargo run --release -q -p miopt --example event_stats -- FwGRU Uncached \
    | awk '/event-free/ && !done { for (i = 1; i <= NF; i++) if ($i ~ /%$/) { print int($i); done = 1; break } }')
if [[ -z "$quiet" || "$quiet" -lt 20 ]]; then
    echo "perf smoke: expected >=20% event-free cycles, got '${quiet:-none}'" >&2
    exit 1
fi
echo "event-core perf smoke ok (${quiet}% of cycles event-free)"

echo "== examples (release, each must exit 0) =="
# `cargo test` only compiles examples/; running each with its default
# arguments catches a runner or config API change that breaks one at
# run time (~35 s on 2 cores, most of it rnn_sweep and rnn_inference).
for ex in quickstart custom_workload event_stats rnn_inference; do
    cargo run --release -q -p miopt --example "$ex" >/dev/null
done
for ex in policy_sweep rnn_sweep; do
    cargo run --release -q -p miopt-harness --example "$ex" >/dev/null
done
echo "examples ok"

echo "== zero-allocation steady state (counting allocator, release) =="
# The hot-path contract: once warmed up, simulating a cycle performs no
# heap allocation. The test binary installs a counting global allocator
# of its own; debug builds always run the (allocating) sentinel, so the
# test is ignored there and runs here in release (the shape the bench
# numbers are recorded in).
cargo test --release -q -p miopt --test zero_alloc

echo "== benchmark self-tests and smoke pass (bench/) =="
# The one perf mechanism is the benchmark in bench/ (BENCHMARK.json is
# its contract). CI does not judge wall time — that takes the paired
# runs described in bench/README.md — it checks that the benchmark
# builds against this tree, that its self-tests pass, and that a smoke
# pass of every workload gets every operation right (anything else
# exits nonzero).
cargo test -q --manifest-path bench/Cargo.toml --offline
cargo run --release -q --manifest-path bench/Cargo.toml --offline -- \
    --workload all --smoke --out "$smoke_dir/bench" >/dev/null
echo "benchmark smoke ok"

if [[ $full -eq 1 ]]; then
    echo "== cargo test --release (full suite, including release-only tests) =="
    cargo test -q --release -- --include-ignored

    echo "== paper-scale regeneration (CSVs byte-identical to results/, gate) =="
    # Every figure from scratch at paper scale: each CSV must equal the
    # committed one byte for byte, and the gate must accept them.
    paper="$smoke_dir/paper"
    start=$SECONDS
    cargo run --release -q -p miopt-harness -- --all --csv "$paper" \
        --no-cache --no-journal --quiet --out "$smoke_dir" >/dev/null
    elapsed=$((SECONDS - start))
    for f in results/*.csv; do
        cmp "$f" "$paper/$(basename "$f")"
    done
    cargo run --release -q -p miopt-harness -- check --dir "$paper" | tail -1
    echo "paper-scale regeneration ok (${elapsed} s wall)"
fi

echo "ci.sh: all checks passed"

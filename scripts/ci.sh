#!/usr/bin/env bash
# Tier-1 verification plus lint gates for the varbench workspace.
#
# Designed for fully offline machines: the workspace has zero external
# dependencies, so everything here works with an empty cargo registry.
# rustfmt/clippy steps skip gracefully when the components are absent.
#
# Usage: scripts/ci.sh
# Env:
#   VARBENCH_THREADS      thread count for Runner-driven paths (0 = all cores)
#   CI_SKIP_SPEEDUP=1     skip the fig5 parallel-speedup benchmark even on
#                         machines with >= 4 cores

set -euo pipefail
cd "$(dirname "$0")/.."

say() { printf '\n== %s ==\n' "$*"; }

# One scratch area for every step; the trap also reaps a serve process
# or stray worker subprocesses left behind by a failed smoke step.
scratch=$(mktemp -d)
serve_pid=""
trap 'rm -rf "$scratch"; [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null;
      pkill -f "varbench worker" 2>/dev/null || true' EXIT

say "tier-1: cargo build --release"
cargo build --release --offline

say "tier-1: cargo test -q"
cargo test -q --offline

say "varbench-bench lib tests in release"
# The serve, worker and protocol unit tests again under the optimizer;
# tests that need fault points carry the faultpoint module's cfg.
cargo test --release --offline -q -p varbench-bench --lib

say "varbench CLI: list + workloads + run all --test --json"
target/release/varbench list
target/release/varbench workloads --test
# The test-effort bytes are committed: any change to what an artifact
# computes (e.g. the bootstrap's random stream) must update the golden.
target/release/varbench run all --test --json > "$scratch/run_all_test.json"
if ! cmp "$scratch/run_all_test.json" tests/golden/run_all_test.json; then
    echo "ERROR: run all --test --json differs from tests/golden/run_all_test.json" >&2
    exit 1
fi
# The two non-MLP workloads must produce variance reports end to end.
target/release/varbench run workload-linear workload-synth --test > /dev/null
target/release/varbench cache stats
# Usage errors must exit 2, not just fail (a panic exits 101): unknown
# flags (the --ful typo regression, the two removed run options) and
# flags missing their value, for every subcommand that takes flags. Each
# case fails at parsing: none binds a port, starts a worker or computes.
while read -r cmd; do
    status=0
    target/release/varbench $cmd >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "ERROR: varbench $cmd exited $status, not 2" >&2
        exit 1
    fi
done <<'EOF'
run fig1 --ful
run fig1 --test --par-bootstrap
run fig1 --test --workers 2
run fig1 --threads
study synthetic-ridge --sedes 3
study synthetic-ridge --seeds
serve --bogus
serve --addr
worker --bogus
query /health --retries
bench --bogus
lint --bogus
workloads --ful
EOF

say "varbench serve: loopback smoke (serve <-> CLI byte-identity)"
servedir="$scratch/serve"
mkdir -p "$servedir"
VARBENCH_CACHE_DIR="$servedir/cache" target/release/varbench serve \
    --addr 127.0.0.1:0 --serial --ready-file "$servedir/ready" &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$servedir/ready" ] && break; sleep 0.1; done
[ -s "$servedir/ready" ] || { echo "ERROR: serve never became ready" >&2; exit 1; }
addr=$(cat "$servedir/ready")
# `varbench query` is the std-only curl stand-in (one TcpStream exchange).
target/release/varbench query --addr "$addr" /health > /dev/null
target/release/varbench query --addr "$addr" /v1/workloads > /dev/null
# The served report must be byte-for-byte the offline CLI's --json output.
target/release/varbench query --addr "$addr" /v1/run \
    '{"artifacts":["workload-synth"],"effort":"test"}' > "$servedir/served.json"
VARBENCH_CACHE_DIR="$servedir/cache" \
    target/release/varbench run workload-synth --test --json \
    > "$servedir/offline.json" 2> /dev/null
if ! cmp -s "$servedir/served.json" "$servedir/offline.json"; then
    echo "ERROR: served report differs from offline varbench run" >&2
    diff "$servedir/served.json" "$servedir/offline.json" >&2 || true
    exit 1
fi
# The same request again is replayed from the response memo: the same
# bytes, and the one replay the cache stats count.
target/release/varbench query --addr "$addr" /v1/run \
    '{"artifacts":["workload-synth"],"effort":"test"}' > "$servedir/replayed.json"
if ! cmp -s "$servedir/replayed.json" "$servedir/served.json" \
    || ! cmp -s "$servedir/replayed.json" "$servedir/offline.json"; then
    echo "ERROR: replayed report differs from the first answer or the offline run" >&2
    exit 1
fi
stats=$(target/release/varbench query --addr "$addr" /v1/cache/stats)
case "$stats" in
    *'"replayed":1,'*) ;;
    *) echo "ERROR: expected one replayed request: $stats" >&2; exit 1 ;;
esac
# Remote study through the same server, then a clean shutdown.
target/release/varbench study synthetic-ridge --test --seeds 3 --json \
    --addr "$addr" > /dev/null
# Seeds travel exactly: a base seed past 2^53 runs remotely as named
# (the same bytes as a local run on its own cache), and one past
# u64::MAX is a 400, not a study at another seed.
target/release/varbench study synthetic-ridge --test --seeds 3 \
    --base-seed 9007199254740993 --json --addr "$addr" > "$servedir/seed-served.json"
VARBENCH_CACHE_DIR="$servedir/seed-cache" target/release/varbench study \
    synthetic-ridge --test --seeds 3 --base-seed 9007199254740993 --json \
    > "$servedir/seed-offline.json" 2> /dev/null
if ! cmp -s "$servedir/seed-served.json" "$servedir/seed-offline.json"; then
    echo "ERROR: remote study at a base seed past 2^53 differs from the local run" >&2
    exit 1
fi
if target/release/varbench query --addr "$addr" /v1/study \
    '{"workload":"synthetic-ridge","effort":"test","seeds":3,"base_seed":18446744073709551616}' \
    > /dev/null 2>&1; then
    echo "ERROR: a base_seed past u64::MAX was accepted" >&2
    exit 1
fi
target/release/varbench query --addr "$addr" --post /v1/shutdown > /dev/null
wait "$serve_pid"
serve_pid=""
# The shared on-disk store survives; gc finds nothing to reclaim.
VARBENCH_CACHE_DIR="$servedir/cache" target/release/varbench cache gc

say "chaos smoke: sharded study survives a kill -9'd worker"
# Faultpoints are compiled in under debug_assertions, so this step runs
# the debug binary (already built by the cargo test step above).
cargo build --offline -q -p varbench-bench --bin varbench
chaosdir="$scratch/chaos"
mkdir -p "$chaosdir/solo" "$chaosdir/fleet"
# Ground truth: the same study, one process, its own fresh cache.
VARBENCH_CACHE_DIR="$chaosdir/solo" target/debug/varbench \
    study synthetic-ridge --test --seeds 4 --budget 3 --json \
    > "$chaosdir/solo.json" 2> /dev/null
# Sharded run on a second fresh cache: a supervised fleet of four
# workers, and the kill1 sentinel guarantees exactly one of them aborts
# (kill -9 style) in the middle of its first row. The supervisor
# respawns it, the driver must reclaim the dead lease, re-dispatch, and
# emit byte-identical output.
VARBENCH_CACHE_DIR="$chaosdir/fleet" \
    VARBENCH_FAULT="worker:mid-row:kill1=$chaosdir/killed" \
    target/debug/varbench \
    study synthetic-ridge --test --seeds 4 --budget 3 --json \
    --workers 4 --row-timeout-ms 500 \
    > "$chaosdir/fleet.json" 2> "$chaosdir/fleet.err"
if [ ! -f "$chaosdir/killed" ]; then
    echo "ERROR: no worker hit the armed faultpoint (chaos smoke proved nothing)" >&2
    exit 1
fi
if ! cmp -s "$chaosdir/solo.json" "$chaosdir/fleet.json"; then
    echo "ERROR: sharded study differs from the single-process run" >&2
    cat "$chaosdir/fleet.err" >&2
    diff "$chaosdir/solo.json" "$chaosdir/fleet.json" >&2 || true
    exit 1
fi
# The study drained its fleet before exiting: no worker may outlive it.
if pgrep -f "varbench worker" > /dev/null 2>&1; then
    echo "ERROR: sharded study leaked worker processes" >&2
    exit 1
fi
# The dead worker's leftovers are gc-able garbage, never torn records.
VARBENCH_CACHE_DIR="$chaosdir/fleet" target/debug/varbench cache gc

say "serve chaos A: fleet-backed study survives a kill -9'd worker"
# The server supervises its own 2-worker fleet; the kill1 sentinel
# guarantees exactly one worker aborts mid-row under the served study.
# The supervisor respawns it, the dispatch loop reclaims the dead
# lease, and the response must still byte-match the single-process run.
fleetdir="$scratch/servefleet"
mkdir -p "$fleetdir/cache"
VARBENCH_CACHE_DIR="$fleetdir/cache" \
    VARBENCH_FAULT="worker:mid-row:kill1=$fleetdir/killed" \
    target/debug/varbench serve --addr 127.0.0.1:0 --serial \
    --workers 2 --row-timeout-ms 500 --ready-file "$fleetdir/ready" \
    2> "$fleetdir/serve.err" &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$fleetdir/ready" ] && break; sleep 0.1; done
[ -s "$fleetdir/ready" ] || { echo "ERROR: fleet serve never became ready" >&2; exit 1; }
fleet_addr=$(cat "$fleetdir/ready")
target/debug/varbench query --addr "$fleet_addr" /v1/ready > /dev/null
target/debug/varbench study synthetic-ridge --test --seeds 4 --budget 3 --json \
    --dispatch --addr "$fleet_addr" > "$fleetdir/served.json"
if [ ! -f "$fleetdir/killed" ]; then
    echo "ERROR: no fleet worker hit the armed faultpoint (serve chaos proved nothing)" >&2
    exit 1
fi
if ! cmp -s "$chaosdir/solo.json" "$fleetdir/served.json"; then
    echo "ERROR: fleet-served study differs from the single-process run" >&2
    cat "$fleetdir/serve.err" >&2
    diff "$chaosdir/solo.json" "$fleetdir/served.json" >&2 || true
    exit 1
fi
# Graceful drain: shutdown must stop the fleet, release its leases, and
# exit 0 without leaking worker processes.
target/debug/varbench query --addr "$fleet_addr" --post /v1/shutdown > /dev/null
wait "$serve_pid"
serve_pid=""
if pgrep -f "varbench worker" > /dev/null 2>&1; then
    echo "ERROR: drained serve leaked worker processes" >&2
    exit 1
fi
gc_out=$(VARBENCH_CACHE_DIR="$fleetdir/cache" target/debug/varbench cache gc)
echo "$gc_out"
case "$gc_out" in
    *"torn 0"*) ;;
    *) echo "ERROR: serve chaos left torn records" >&2; exit 1 ;;
esac
case "$gc_out" in
    *"stale-lease 0"*) ;;
    *) echo "ERROR: drained fleet left stale leases behind" >&2; exit 1 ;;
esac

say "serve chaos B: server killed mid-study; restart + retrying client recover"
# Ground truth for the extended study: 6 seeds over the solo cache, so
# the expected bytes are themselves assembled record-prefix-stably.
VARBENCH_CACHE_DIR="$chaosdir/solo" target/debug/varbench \
    study synthetic-ridge --test --seeds 6 --budget 3 --json \
    > "$chaosdir/solo6.json" 2> /dev/null
# A doomed server on the part-A cache: it aborts (kill -9 style) in the
# middle of the first dispatched study it accepts.
VARBENCH_CACHE_DIR="$fleetdir/cache" \
    VARBENCH_FAULT="serve:mid-dispatch:kill" \
    target/debug/varbench serve --addr 127.0.0.1:0 --serial \
    --ready-file "$fleetdir/ready-doomed" 2> "$fleetdir/doomed.err" &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$fleetdir/ready-doomed" ] && break; sleep 0.1; done
[ -s "$fleetdir/ready-doomed" ] || { echo "ERROR: doomed serve never became ready" >&2; exit 1; }
doomed_addr=$(cat "$fleetdir/ready-doomed")
# The client keeps retrying through the crash window (dead connection,
# then connection refused, then the revived server).
target/debug/varbench query --addr "$doomed_addr" --retries 15 --timeout-ms 60000 \
    /v1/study \
    '{"workload":"synthetic-ridge","effort":"test","seeds":6,"budget":3,"dispatch":true}' \
    > "$fleetdir/served6.json" 2> "$fleetdir/query.err" &
query_pid=$!
if wait "$serve_pid" 2>/dev/null; then
    echo "ERROR: the doomed server survived its armed faultpoint" >&2
    exit 1
fi
serve_pid=""
# Revive on the same address (SO_REUSEADDR makes the rebind immediate;
# the loop is belt and braces), this time with a healthy fleet.
rm -f "$fleetdir/ready-revived"
for _ in $(seq 1 20); do
    VARBENCH_CACHE_DIR="$fleetdir/cache" target/debug/varbench serve \
        --addr "$doomed_addr" --serial --workers 2 --row-timeout-ms 500 \
        --ready-file "$fleetdir/ready-revived" 2>> "$fleetdir/revived.err" &
    serve_pid=$!
    for _ in $(seq 1 20); do
        [ -s "$fleetdir/ready-revived" ] && break
        kill -0 "$serve_pid" 2>/dev/null || break
        sleep 0.1
    done
    [ -s "$fleetdir/ready-revived" ] && break
    wait "$serve_pid" 2>/dev/null || true
    serve_pid=""
    sleep 0.2
done
[ -s "$fleetdir/ready-revived" ] || { echo "ERROR: could not rebind the crashed server's address" >&2; exit 1; }
if ! wait "$query_pid"; then
    echo "ERROR: the retrying client never completed against the revived server" >&2
    cat "$fleetdir/query.err" >&2
    exit 1
fi
if ! cmp -s "$chaosdir/solo6.json" "$fleetdir/served6.json"; then
    echo "ERROR: post-crash served study differs from the single-process run" >&2
    cat "$fleetdir/revived.err" >&2
    diff "$chaosdir/solo6.json" "$fleetdir/served6.json" >&2 || true
    exit 1
fi
# The revived server must have answered through the dispatch path,
# recomputing only the rows the part-A cache was missing.
if ! grep -q "serve dispatch" "$fleetdir/revived.err"; then
    echo "ERROR: revived server never took the dispatch path" >&2
    cat "$fleetdir/revived.err" >&2
    exit 1
fi
target/debug/varbench query --addr "$doomed_addr" --post /v1/shutdown > /dev/null
wait "$serve_pid"
serve_pid=""
if pgrep -f "varbench worker" > /dev/null 2>&1; then
    echo "ERROR: revived serve leaked worker processes" >&2
    exit 1
fi
gc_out=$(VARBENCH_CACHE_DIR="$fleetdir/cache" target/debug/varbench cache gc)
echo "$gc_out"
case "$gc_out" in
    *"torn 0"*) ;;
    *) echo "ERROR: server crash left torn records" >&2; exit 1 ;;
esac

say "benchmark smoke: reproduce, every in-process render checked"
# A short reproduce run of the end-to-end benchmark (perfbench/): all 15
# artifacts at --test on nproc threads and a fresh cache per op, in a
# seeded artifact order. "correct":true means every op's render matched
# the serial, uncached one. Building into target/ reuses the release
# binary the steps above tested.
bench_last=$(CARGO_TARGET_DIR=target bash perfbench/run.sh \
    --workload reproduce --seed 1 --seconds 3 --trace 0 | tail -n 1)
echo "$bench_last"
case "$bench_last" in
    '{"correct":true,'*) ;;
    *) echo "ERROR: the reproduce benchmark run was not correct" >&2; exit 1 ;;
esac

say "benchmark smoke: serve-warm, every served body checked"
# A short serve-warm run. Its last stdout line reports "correct":true only
# when every served study, listing and run body matched its in-process
# reference.
bench_last=$(CARGO_TARGET_DIR=target bash perfbench/run.sh \
    --workload serve-warm --seed 1 --seconds 3 --trace 0 | tail -n 1)
echo "$bench_last"
case "$bench_last" in
    '{"correct":true,'*) ;;
    *) echo "ERROR: the serve-warm benchmark run was not correct" >&2; exit 1 ;;
esac

say "benchmark smoke: serve-dispatch, every dispatched body and the fleet's hygiene checked"
# Cold studies computed by a served 2-worker fleet. "correct":true means
# every body matched its in-process reference, and no lease, queued job,
# torn record or worker process was left behind.
bench_last=$(CARGO_TARGET_DIR=target bash perfbench/run.sh \
    --workload serve-dispatch --seed 1 --seconds 3 --trace 0 | tail -n 1)
echo "$bench_last"
case "$bench_last" in
    '{"correct":true,'*) ;;
    *) echo "ERROR: the serve-dispatch benchmark run was not correct" >&2; exit 1 ;;
esac

say "varbench lint (repo-invariant checker; hard gate)"
target/release/varbench lint
# The gate must actually detect violations: seed one and expect exit 1
# with the stable lint ID in the output.
lintdir="$scratch/lint"
mkdir -p "$lintdir/src"
printf 'use std::collections::HashMap;\n' > "$lintdir/src/seeded.rs"
if out=$(target/release/varbench lint "$lintdir" 2>&1); then
    echo "ERROR: varbench lint missed a seeded violation" >&2
    exit 1
fi
case "$out" in
    *L001*) ;;
    *) echo "ERROR: seeded violation did not report L001: $out" >&2; exit 1 ;;
esac

say "cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --quiet

say "bench suites run once (quick, release)"
# Every suite on any core count; the perf gate below needs 2 cores.
target/release/varbench bench --quick > /dev/null

say "rustfmt"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "rustfmt not installed; skipping"
fi

say "clippy"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --all-targets -- -D warnings
else
    echo "clippy not installed; skipping"
fi

# The executor acceptance benchmark needs real cores to mean anything.
cores=$(nproc 2>/dev/null || echo 1)
if [ "${CI_SKIP_SPEEDUP:-0}" != "1" ] && [ "$cores" -ge 4 ]; then
    say "fig5 quick parallel speedup (>= 2x on $cores cores)"
    cargo test --release --offline --test figures_smoke -- --ignored fig5_quick_parallel_speedup
else
    say "fig5 speedup benchmark skipped (cores=$cores, CI_SKIP_SPEEDUP=${CI_SKIP_SPEEDUP:-0})"
fi

# Perf-regression gate: quick-mode timing suites vs the committed
# quick-mode companion baseline BENCH_10_quick.json — comparing quick
# medians against quick medians, not against the full-mode trajectory
# snapshot (quick mode's short reps read systematically slower on slow
# boxes, which made the old full-baseline gate cry wolf). Timing on a
# 1-CPU box is noise, so it skips there (the PR-1 convention).
if [ "${CI_SKIP_PERF_GATE:-0}" != "1" ] && [ "$cores" -ge 2 ] && [ -f BENCH_10_quick.json ]; then
    say "perf regression gate (quick bench vs BENCH_10_quick.json, +25% budget)"
    target/release/varbench bench --quick --json --baseline BENCH_10_quick.json --max-regress 25 > /dev/null
else
    say "perf gate skipped (cores=$cores, CI_SKIP_PERF_GATE=${CI_SKIP_PERF_GATE:-0})"
fi

say "all checks passed"

#!/usr/bin/env bash
# Tier-1 verification gate (referenced from README.md).
#
# The workspace is hermetic — zero crates-io dependencies — so everything
# here runs with --offline and must pass with no network access. Any
# nonzero exit fails the gate.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline"
cargo test -q --offline

echo "== cargo test under UGC_THREADS=1 (deterministic serial execution)"
# The pool honors UGC_THREADS as a global cap; 1 means every parallel_for
# runs inline. Scoped to the crates that exercise the pool to bound time.
# ugc-integration includes the cross-backend differential conformance
# suite (tests/differential_backends.rs) and the pool counter tests, so
# both run serially here — the latter asserts that no job is dispatched
# and no worker parks, exactly.
UGC_THREADS=1 cargo test -q --offline -p ugc-runtime -p ugc-backend-cpu -p ugc-integration

echo "== pool tests, 20 release runs (chunk-cursor interleavings)"
# Which participant claims which chunk differs from run to run, so one
# pass samples one interleaving; each binary finishes in well under a
# second.
for _ in $(seq 20); do
  cargo test -q --release --offline -p ugc-runtime --lib pool
  cargo test -q --release --offline -p ugc-integration --test pool_threads
done

echo "== oriented TC exactness, 20 release runs at 1 and 8 threads (atomic-credit interleavings)"
# An oriented triangle count credits each corner from whichever worker
# finds the triangle, by relaxed atomic adds; which worker claims which
# chunk differs from run to run, so loop the random-graph and fallback
# properties. The dataset-scale check runs once, in the plain test pass.
for _ in $(seq 20); do
  for threads in 1 8; do
    UGC_THREADS=$threads cargo test -q --release --offline -p ugc-integration \
      --test oriented_tc -- random_symmetric falls_back kernels_off
  done
done

echo "== cargo test under UGC_TELEMETRY=0 (counters compiled to no-ops)"
# Disabled telemetry must leave results identical and registries empty;
# telemetry_invariants asserts both, the differential suite proves the
# answers don't change, pool_threads checks the all-zero counter branch,
# failure_modes drives the repro CLI's telemetry-off exit path, and
# guided_tuning proves the simulators' tunings still prune (the cost model
# reads each run's own attribution, not the registry).
UGC_TELEMETRY=0 cargo test -q --offline -p ugc-telemetry
UGC_TELEMETRY=0 cargo test -q --offline -p ugc-integration \
  --test telemetry_invariants --test differential_backends \
  --test pool_threads --test failure_modes --test guided_tuning

echo "== repro --profile smoke (attribution tables must balance)"
# repro itself exits nonzero when a backend's components fail to sum to
# its total; on top of that, assert the table actually rendered for all
# four backends and the snapshot landed in the JSON-lines output.
rm -f target/ci-profile-smoke.json
profile_out="$(UGC_BENCH_OUT=target/ci-profile-smoke.json \
  cargo run --release --offline -q -p ugc-bench --bin repro -- --scale tiny --profile all)"
balanced=$(printf '%s\n' "$profile_out" | grep -c "components sum to total" || true)
if [ "$balanced" -ne 4 ]; then
  echo "profile smoke: expected 4 balanced attribution tables, saw $balanced" >&2
  exit 1
fi
grep -q '"counter":"sim_gpu.cycles.total"' target/ci-profile-smoke.json || {
  echo "profile smoke: telemetry snapshot missing from JSON output" >&2
  exit 1
}

echo "== kernel dispatch smoke (operators compile; fallback env honored)"
# A default CPU profile run must run its operators compiled (nonzero
# cpu.kernel.compiled in the snapshot) and leave nothing to the interpreter
# (no nonzero cpu.kernel.fallback); the same run under UGC_CPU_KERNELS=0
# must go entirely through the interpreter — the compiled counter never
# moves, the fallback counter does.
rm -f target/ci-kernels-on.json target/ci-kernels-off.json
UGC_BENCH_OUT=target/ci-kernels-on.json \
  cargo run --release --offline -q -p ugc-bench --bin repro -- --scale tiny --profile cpu \
  > /dev/null
grep -Eq '"counter":"cpu.kernel.compiled","value":[1-9]' target/ci-kernels-on.json || {
  echo "kernel smoke: cpu.kernel.compiled is zero/absent on a default run" >&2
  exit 1
}
if grep -Eq '"counter":"cpu.kernel.fallback","value":[1-9]' target/ci-kernels-on.json; then
  echo "kernel smoke: a default run left operators to the interpreter" >&2
  exit 1
fi
UGC_CPU_KERNELS=0 UGC_BENCH_OUT=target/ci-kernels-off.json \
  cargo run --release --offline -q -p ugc-bench --bin repro -- --scale tiny --profile cpu \
  > /dev/null
if grep -Eq '"counter":"cpu.kernel.compiled","value":[1-9]' target/ci-kernels-off.json; then
  echo "kernel smoke: UGC_CPU_KERNELS=0 still compiled operators" >&2
  exit 1
fi
grep -Eq '"counter":"cpu.kernel.fallback","value":[1-9]' target/ci-kernels-off.json || {
  echo "kernel smoke: forced-fallback run recorded no interpreter dispatches" >&2
  exit 1
}

echo "== telemetry centralization gate"
# Every perf counter lives in crates/telemetry. No other crate may
# declare a raw `static ... AtomicU64` counter — property storage
# (Vec<AtomicU64> fields) and test-local atomics are fine; the gate is
# on statics, which is how ad-hoc perf counters creep back in.
if grep -rn --include='*.rs' 'static .*AtomicU64' crates | grep -v '^crates/telemetry/'; then
  echo "telemetry gate: raw static AtomicU64 counter outside crates/telemetry" >&2
  exit 1
fi

echo "== chaos smoke (seeded faults; supervised runs must stay reference-equal)"
# A deterministic fault schedule across all three simulator domains. The
# repro chaos experiment itself exits 1 on any silent wrong answer or if
# no resilience counter moved; on top of that, assert every one of the 8
# (algorithm x backend) rows recovered to a reference-equal result with
# these seeds.
chaos_env='gpu:kernel_launch_fail:p=0.3:seed=7,swarm:task_abort_storm:p=0.2:seed=3,hb:dram_bit_error:p=0.05:seed=9'
chaos_out="$(UGC_FAULTS="$chaos_env" \
  cargo run --release --offline -q -p ugc-bench --bin repro -- --scale tiny chaos)"
recovered=$(printf '%s\n' "$chaos_out" | grep -c "reference-equal" || true)
if [ "$recovered" -ne 8 ]; then
  echo "chaos smoke: expected 8 reference-equal rows, saw $recovered" >&2
  printf '%s\n' "$chaos_out" >&2
  exit 1
fi

echo "== repro fig11 smoke (one Swarm breakdown row per algorithm)"
# fig11 executes each algorithm on the Swarm GraphVM directly, with the
# externs repro binds itself. It must exit 0 and print the LP row, whose
# max_iters/lp_seed externs only the algorithm's defaults supply.
fig11_out="$(cargo run --release --offline -q -p ugc-bench --bin repro -- --scale tiny fig11)"
if ! printf '%s\n' "$fig11_out" | grep -q '^LP '; then
  echo "fig11 smoke: no LP row" >&2
  printf '%s\n' "$fig11_out" >&2
  exit 1
fi

echo "== algorithm suite differential smoke (tc/kcore/lp across all four backends)"
# Each new algorithm's headline scalar must exist and agree across every
# backend at tiny scale: the triangle total, the maximum coreness, and the
# number of label classes are all backend-independent facts about the
# graph, so any divergence is a wrong answer, not noise. tc also runs on
# PK, whose skewed degrees load the CPU's oriented count (each triangle
# once; both graphs are symmetric and simple), and adds a fifth column:
# the CPU forced onto the interpreter, which counts by the plain merge.
for spec in "tc triangles RN" "tc triangles PK" "kcore max_coreness RN" "lp label_classes RN"; do
  read -r algo key graph <<<"$spec"
  columns="cpu gpu swarm hb"
  if [ "$algo" = tc ]; then
    columns="$columns interp"
  fi
  want=""
  for target in $columns; do
    if [ "$target" = interp ]; then
      run_out="$(UGC_CPU_KERNELS=0 cargo run --release --offline -q -p ugc-bench --bin repro -- \
        --scale tiny run cpu "$algo" "$graph")"
    else
      run_out="$(cargo run --release --offline -q -p ugc-bench --bin repro -- \
        --scale tiny run "$target" "$algo" "$graph")"
    fi
    val="$(printf '%s\n' "$run_out" | grep -o "${key}=[0-9]*" | head -1 | cut -d= -f2)"
    if [ -z "$val" ]; then
      echo "algorithm smoke: $target/$algo/$graph printed no ${key}=: $run_out" >&2
      exit 1
    fi
    if [ -z "$want" ]; then
      want="$val"
    elif [ "$val" != "$want" ]; then
      echo "algorithm smoke: $target/$algo/$graph ${key}=$val diverges from $want" >&2
      exit 1
    fi
  done
done

echo "== simulator determinism smoke (fresh processes agree on every cycle)"
# Simulated time is a function of the program, schedule and graph alone:
# no per-process hash seed, thread count or allocation may move a cycle.
# Each simulator runs the same cells in two fresh processes, and every
# cycle count must match.
for target in gpu swarm hb; do
  for algo in bfs sssp cc kcore; do
    first=""
    for _ in 1 2; do
      run_out="$(target/release/repro --scale tiny run "$target" "$algo" PK)"
      cycles="$(printf '%s\n' "$run_out" | grep -o 'cycles=[0-9]*' | head -1)"
      if [ -z "$cycles" ]; then
        echo "determinism smoke: $target/$algo printed no cycles=: $run_out" >&2
        exit 1
      fi
      if [ -n "$first" ] && [ "$cycles" != "$first" ]; then
        echo "determinism smoke: $target/$algo ran $first, then $cycles" >&2
        exit 1
      fi
      first="$cycles"
    done
  done
done

echo "== algorithm conformance gate (every registered algorithm is differentially tested)"
# The frontend registry (Algorithm::ALL) is the source of truth: every
# variant listed there must appear in the cross-backend differential
# conformance suite. Adding an algorithm without conformance coverage
# fails the gate.
registry="$(awk '/pub const ALL/,/\];/' crates/algorithms/src/lib.rs \
  | grep -o 'Algorithm::[A-Za-z]*' | sort -u)"
if [ "$(printf '%s\n' "$registry" | wc -l)" -lt 8 ]; then
  echo "conformance gate: failed to extract the algorithm registry" >&2
  exit 1
fi
for variant in $registry; do
  grep -q "$variant\b" tests/differential_backends.rs || {
    echo "conformance gate: $variant is registered but missing from tests/differential_backends.rs" >&2
    exit 1
  }
done

echo "== backend VM containment gate"
# GraphVM execute paths must surface failures as classed errors through
# the contain() boundary — never unwrap or panic in production code. The
# boundary itself is the shared GraphVm::execute in runtime/src/vm.rs. The
# compiled UDF bodies run on the same path and follow the same rule
# (their only panics are the arithmetic's own, e.g. integer division by
# zero, exactly as the interpreter's). Test modules are exempt: the gate
# stops scanning at the first #[cfg(test)]. A listed file that is missing
# fails the gate rather than silently dropping out of it.
containment_bad=0
for f in crates/runtime/src/vm.rs crates/backend-*/src/vm.rs crates/backend-*/src/executor.rs crates/runtime/src/udf.rs; do
  if [ ! -f "$f" ]; then
    echo "containment gate: $f does not exist" >&2
    containment_bad=1
    continue
  fi
  if ! awk '/#\[cfg\(test\)\]/{exit} /\.unwrap\(\)|panic!\(/{print FILENAME ": " $0; found=1} END{exit found}' "$f"; then
    containment_bad=1
  fi
done
if [ "$containment_bad" -ne 0 ]; then
  echo "containment gate: a listed file is missing, or unwrap()/panic! in backend VM production code (see lines above)" >&2
  exit 1
fi

echo "== autotuner smoke (tiny scale, fixed seed, capped budget)"
# A deterministic end-to-end tune of one triple per simulator target; the
# second GPU invocation must hit the persistent cache without re-measuring.
export UGC_TUNE_CACHE="target/ci-tuning-cache.jsonl"
rm -f "$UGC_TUNE_CACHE"
tune() {
  cargo run --release --offline -q -p ugc-bench --bin repro -- \
    --scale tiny --seed 7 --budget 10 tune "$@"
}
tune gpu bfs PK
tune swarm sssp RN
tune hb pr PK
# Capture to a file rather than piping into grep -q: an early-exiting
# grep would hand repro a broken pipe mid-print.
tune gpu bfs PK > target/ci-tune-rerun.txt
grep -q "cache hit" target/ci-tune-rerun.txt || {
  echo "autotuner smoke: expected a cache hit on the second GPU tune" >&2
  exit 1
}
grep -q "winner profile:" target/ci-tune-rerun.txt || {
  echo "autotuner smoke: cached tune must replay the winner's profile" >&2
  exit 1
}

echo "== tune --explain smoke (cost model must prune and account its budget)"
# A fresh guided GPU tune at a budget that lets the cost model engage:
# the report must name at least one pruned axis with its dominant
# component, and the measured/pruned/considered budget line must balance.
cargo run --release --offline -q -p ugc-bench --bin repro -- \
  --scale tiny --seed 7 --budget 24 --no-cache tune --explain gpu bfs PK \
  > target/ci-tune-explain.txt
grep -q 'pruned axis `' target/ci-tune-explain.txt || {
  echo "explain smoke: no pruned axis reported" >&2
  cat target/ci-tune-explain.txt >&2
  exit 1
}
awk -F'[= ]' '/^budget: /{
  for (i = 1; i <= NF; i++) {
    if ($i == "measured") m = $(i+1)
    if ($i == "pruned") p = $(i+1)
    if ($i == "considered") c = $(i+1)
  }
  if (m + p != c) { print "explain smoke: budget line does not balance: " $0 > "/dev/stderr"; exit 1 }
  found = 1
}
END { if (!found) { print "explain smoke: no budget line" > "/dev/stderr"; exit 1 } }' \
  target/ci-tune-explain.txt

echo "== tune --explain smoke under UGC_TELEMETRY=0 (pruning does not need the registry)"
# Every run returns its own attribution, so the same tune with telemetry
# off must prune the same axes and print the same budget line and winner
# profile.
UGC_TELEMETRY=0 cargo run --release --offline -q -p ugc-bench --bin repro -- \
  --scale tiny --seed 7 --budget 24 --no-cache tune --explain gpu bfs PK \
  > target/ci-tune-explain-off.txt
grep -q 'pruned=8 ' target/ci-tune-explain-off.txt || {
  echo "explain smoke: telemetry-off tune did not prune 8 candidates" >&2
  cat target/ci-tune-explain-off.txt >&2
  exit 1
}
grep -q "winner profile:" target/ci-tune-explain-off.txt || {
  echo "explain smoke: telemetry-off tune printed no winner profile" >&2
  exit 1
}
if [ "$(grep '^budget: ' target/ci-tune-explain-off.txt)" != \
  "$(grep '^budget: ' target/ci-tune-explain.txt)" ]; then
  echo "explain smoke: budget line differs with telemetry off" >&2
  exit 1
fi

echo "== serve smoke (unix socket; pair coalesces; no thread leak; clean shutdown)"
# Boot the daemon on a unix socket, run a batched pair (two concurrent BFS
# clients against a single admission slot and a wide batch window, so the
# late arrival coalesces) plus two degenerate non-batchable queries, then
# assert from `stats` that coalescing happened and that the pool worker
# count is identical across two captures — serving must not leak threads.
repro_bin="target/release/repro"
serve_sock="target/ci-serve.sock"
rm -f "$serve_sock"
"$repro_bin" serve --socket "$serve_sock" --admit 1 --batch-max 8 --batch-window-ms 500 \
  > target/ci-serve-daemon.txt 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$serve_sock" ] && break
  sleep 0.1
done
if ! [ -S "$serve_sock" ]; then
  echo "serve smoke: daemon never bound $serve_sock" >&2
  kill "$serve_pid" 2> /dev/null || true
  exit 1
fi
"$repro_bin" client "unix:$serve_sock" query bfs RN source=0 > target/ci-serve-q1.txt &
client_a=$!
"$repro_bin" client "unix:$serve_sock" query bfs RN source=7 > target/ci-serve-q2.txt &
client_b=$!
wait "$client_a"
wait "$client_b"
# The shared pool spawns its workers on first parallel use, and the BFS
# pair above runs the sequential multi-source engine, so the first
# supervised query is what starts it: capture the count after one CC
# query, compare after a second.
"$repro_bin" client "unix:$serve_sock" query cc RN > target/ci-serve-q3.txt
workers_before="$("$repro_bin" client "unix:$serve_sock" stats \
  | grep -o 'pool_workers=[0-9]*')"
"$repro_bin" client "unix:$serve_sock" query cc RN > target/ci-serve-q4.txt
stats_out="$("$repro_bin" client "unix:$serve_sock" stats)"
coalesced="$(printf '%s\n' "$stats_out" | grep -o 'coalesced=[0-9]*' | cut -d= -f2)"
if [ "${coalesced:-0}" -eq 0 ]; then
  echo "serve smoke: concurrent BFS pair never coalesced: $stats_out" >&2
  exit 1
fi
workers_after="$(printf '%s\n' "$stats_out" | grep -o 'pool_workers=[0-9]*')"
if [ "$workers_before" != "$workers_after" ]; then
  echo "serve smoke: pool worker count drifted ($workers_before -> $workers_after)" >&2
  exit 1
fi
"$repro_bin" client "unix:$serve_sock" shutdown > /dev/null
wait "$serve_pid"
grep -q "shutdown complete" target/ci-serve-daemon.txt || {
  echo "serve smoke: daemon did not report a clean shutdown" >&2
  exit 1
}

echo "== chaos-serve smoke (daemon under faults: breaker opens, deadlines shed, clean drain)"
# repro chaos-serve boots an in-process daemon on a unix socket under the
# serve fault schedule, then exercises the whole failure surface: healthy
# traffic that must survive injected batch aborts, a poisoned key that
# must open its circuit breaker, tight deadlines that must shed in queue,
# and fuzzed protocol frames that must end in typed errors. The driver
# itself exits 1 unless the ok+errored+shed ledger balances against
# admitted and pool_workers stays stable; on top of that, assert the two
# headline events and the clean drain actually showed up in the output.
chaos_serve_out="$(UGC_FAULTS='serve:batch_abort:p=0.9:seed=7' \
  "$repro_bin" --scale tiny chaos-serve)"
opened="$(printf '%s\n' "$chaos_serve_out" \
  | grep -o 'circuit breaker: [0-9]*' | grep -o '[0-9]*' || echo 0)"
if [ "${opened:-0}" -eq 0 ]; then
  echo "chaos-serve smoke: no query was ever rejected by an open circuit" >&2
  printf '%s\n' "$chaos_serve_out" >&2
  exit 1
fi
shed="$(printf '%s\n' "$chaos_serve_out" \
  | grep -o 'deadline propagation: [0-9]*' | grep -o '[0-9]*' || echo 0)"
if [ "${shed:-0}" -eq 0 ]; then
  echo "chaos-serve smoke: no query was ever deadline-shed in queue" >&2
  printf '%s\n' "$chaos_serve_out" >&2
  exit 1
fi
printf '%s\n' "$chaos_serve_out" | grep -q "drain complete" || {
  echo "chaos-serve smoke: daemon never drained cleanly" >&2
  printf '%s\n' "$chaos_serve_out" >&2
  exit 1
}

echo "== serve races x100 (an admitted query is always answered; a burst on a fresh gate coalesces)"
# tests/serve.rs::shutdown_racing_a_query_burst_never_drops_an_admitted_query
# classifies every client of a burst that races shutdown and asserts
# admitted => answered. It used to fail about 1 run in 6 (connections
# reset at close), so one green run proves nothing: loop it.
# coalesced_replies_match_sequential_replies rides along: its burst must
# coalesce because a fresh gate lingers, not because arrivals were lucky
# (it failed about 1 run in 5 when its reference pass shared the server
# and left the window disarmed).
for i in $(seq 1 100); do
  cargo test -q --offline -p ugc-integration --test serve -- --exact \
    shutdown_racing_a_query_burst_never_drops_an_admitted_query \
    coalesced_replies_match_sequential_replies > target/ci-serve-races.txt 2>&1 || {
    echo "serve races: run $i of 100 failed" >&2
    cat target/ci-serve-races.txt >&2
    exit 1
  }
done

echo "== benchmark smoke (every metric emitted, every answer right, manifest in sync)"
# The repo's perf surface is benchmark/ (BENCHMARK.json, benchmark/README.md).
# --smoke runs every workload at tiny scale in under 15 s. The package is
# its own workspace; run.sh already builds into this target/, and the tests
# are pointed at it too so both share the compiled crates.
#
# One known harness artefact is retried, nothing else: at smoke scale the
# `midend.lower_us` probe is the difference of two ~50 us means, and noise
# zeroes it about one run in five ("probe midend.lower_us reported
# nothing"). A wrong answer or a missing metric is deterministic and fails
# on the first attempt.
#
# The benchmark is a contract this repo may not edit while claiming a gain:
# build it against its committed lockfile, and fail if the build or the
# smoke left anything under benchmark/ or BENCHMARK.json modified (a
# rewritten Cargo.lock means a crate or inter-crate dependency was added).
CARGO_TARGET_DIR="$PWD/target" cargo build --release --locked --offline --quiet \
  --manifest-path benchmark/Cargo.toml
smoke_ok=0
for _ in 1 2 3; do
  if bash benchmark/run.sh --smoke > target/ci-benchmark-smoke.txt 2> target/ci-benchmark-smoke.err; then
    smoke_ok=1
    break
  fi
  grep -q "probe .* reported nothing" target/ci-benchmark-smoke.err || break
done
if [ "$smoke_ok" -ne 1 ]; then
  echo "benchmark smoke failed" >&2
  cat target/ci-benchmark-smoke.err >&2
  exit 1
fi
CARGO_TARGET_DIR="$PWD/target" cargo test -q --locked --offline --manifest-path benchmark/Cargo.toml
git diff --quiet -- benchmark BENCHMARK.json || {
  echo "benchmark gate: files under benchmark/ or BENCHMARK.json changed:" >&2
  git diff --stat -- benchmark BENCHMARK.json >&2
  exit 1
}

echo "tier-1 gate: OK"

#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it; see README.md.
#
#   run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#   run.sh --aa | --smoke | --manifest
#
# Run from anywhere: paths resolve against the repository root, which is
# the parent of this script's directory. Build output goes to
# $CARGO_TARGET_DIR if set, else to the repository's own target/, so the
# benchmark shares compiled crates with the rest of the workspace.
set -euo pipefail

start_dir=$PWD
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
target=${CARGO_TARGET_DIR:-$root/target}
case $target in
    /*) ;;
    *) target=$start_dir/$target ;;
esac
cd "$root"

# Cargo's progress goes to stderr; stdout carries only the benchmark's own
# output, whose last line is the result.
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/ugc-benchmark" \
    --out-dir "$root/benchmark/out" \
    --check-manifest "$root/BENCHMARK.json" \
    "$@"

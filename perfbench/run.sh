#!/usr/bin/env bash
# Builds the benchmark and runs it pinned to one CPU.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Pinning makes the in-process server's thread handoffs context switches
# on one CPU instead of wake-ups of another vCPU, whose latency follows
# the host's load rather than the code. The build itself is not pinned.
# On one CPU per-thread malloc arenas buy nothing, and which arena a
# thread gets depends on thread start order, which made peak RSS
# bimodal; one arena makes it repeat.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml"
exe="${CARGO_TARGET_DIR:-$here/target}/release/perfbench"
export MALLOC_ARENA_MAX=1

# Every figure comes from a pinned run: without taskset, no run at all.
command -v taskset >/dev/null || { echo "perfbench: taskset is required" >&2; exit 1; }
# The first CPU this process may run on.
cpu="$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')"
exec taskset -c "$cpu" "$exe" "$@"

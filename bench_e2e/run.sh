#!/bin/sh
# Build pfsem_e2e from this checkout and run the end-to-end benchmark.
# See bench_e2e/README.md for the metrics and workloads.
#
#   bench_e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       One workload. The last line of output is the result JSON whose
#       metrics BENCHMARK.json lists (end-to-end with --trace 0,
#       per-layer with --trace 1).
#   bench_e2e/run.sh [--seed N] [--seconds S] [--require-clean]
#       Every workload, each with a traced rep. Writes bench_out/e2e/
#       NAME.json (every statistic, stamped with git SHA, time and host)
#       and NAME.trace.json (the traced rep's Chrome trace). A dirty
#       tree is warned about; --require-clean makes it fatal.
#   bench_e2e/run.sh --smoke
#       The quick self-check (also `ctest -L bench` in the build tree).
#
# The build lands in .bench_build/e2e at the repository root (Release,
# at most 4 parallel jobs); build output goes to stderr.
set -e
here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
root=$(dirname -- "$here")
build="$root/.bench_build/e2e"

build_driver() {
  gen=
  if command -v ninja > /dev/null 2>&1; then gen="-G Ninja"; fi
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$here" -B "$build" $gen -DCMAKE_BUILD_TYPE=Release >&2
  fi
  jobs=$(nproc 2> /dev/null || echo 2)
  if [ "$jobs" -gt 4 ]; then jobs=4; fi
  cmake --build "$build" --target pfsem_e2e -j "$jobs" >&2
  # Should a streaming run outgrow its in-memory spill ceiling, its temp
  # file stays inside the checkout too.
  mkdir -p "$build/tmp"
  export TMPDIR="$build/tmp"
}

case " $* " in
  *" --workload "*)
    build_driver
    exec "$build/pfsem_e2e" "$@"
    ;;
  *" --smoke "*)
    build_driver
    exec "$build/pfsem_e2e" --smoke --benchmark-json "$root/BENCHMARK.json"
    ;;
esac

require_clean=0
for arg in "$@"; do
  case "$arg" in
    --require-clean) require_clean=1 ;;
  esac
done
# Everything else (--seed, --seconds) passes through to pfsem_e2e.
set -- $(for arg in "$@"; do [ "$arg" = "--require-clean" ] || printf '%s ' "$arg"; done)

sha=$(git -C "$root" rev-parse --short HEAD 2> /dev/null || echo unknown)
if [ "$sha" != unknown ] && ! git -C "$root" diff --quiet HEAD; then
  if [ "$require_clean" = 1 ]; then
    echo "run.sh: FATAL: working tree is dirty and --require-clean" >&2
    echo "run.sh: was given; commit or stash before benchmarking." >&2
    exit 1
  fi
  echo "==================================================================" >&2
  echo "run.sh: WARNING: working tree is DIRTY — the recorded git_sha" >&2
  echo "run.sh: ($sha-dirty) does not name the code being measured." >&2
  echo "run.sh: Numbers produced now are NOT reproducible; do not" >&2
  echo "run.sh: commit them. Pass --require-clean to make this fatal." >&2
  echo "==================================================================" >&2
  sha="$sha-dirty"
fi
stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
host=$(hostname 2> /dev/null || uname -n 2> /dev/null || echo unknown)

build_driver
out="$root/bench_out/e2e"
mkdir -p "$out"
status=0
for w in $("$build/pfsem_e2e" --list); do
  "$build/pfsem_e2e" --workload "$w" --trace 1 --out "$out/$w.json" \
    --trace-out "$out/$w.trace.json" --sha "$sha" --timestamp "$stamp" \
    --host "$host" "$@" || status=1
done
echo "results in $out"
exit $status

#!/usr/bin/env bash
# Plan-byte differential: do this tree's plans serialize byte for byte like
# the base branch's?
#
#   tools/plan_bytes_diff.sh <base-ref> [work-dir]
#
# Builds crowdmap_cli twice, at `git merge-base <base-ref> HEAD` and from the
# checked-out tree (HEAD plus any uncommitted edits), renders the same
# eleven plans with each build and `cmp`s every pair:
#
#   lab1, lab2, gym   x   --threads 1, --threads 0, --nodes 3
#   lab1 --faults     (every stage degrades; the CLI cannot render a junk or
#                      adversarial campaign, so this plan stands in for one)
#   lab1 scalar       (--threads 0 with simd.force_scalar = true)
#
# The scalar plan is also `cmp`ed against the same side's lab1 --threads 0
# plan, so the SIMD kernels' scalar and vector paths are checked against
# each other on every run as well as across the two builds.
#
# Exits 1 naming each pair whose bytes differ, 0 when all match. The
# faults run's degradation line is compared too. A change that alters plan
# bytes on purpose says so, with the reason, in CHANGES.md.
#
# Bytes are exact only on one toolchain (EXPERIMENTS.md), so both sides are
# built here by the same compiler; there is no committed golden digest. The
# base is exported with `git archive`, which leaves the repository's worktree
# list untouched even when the script is interrupted. Build trees, plans and
# CLI output go under work-dir (default: a new temporary directory), which is
# kept for inspection. Set CMAKE_CXX_COMPILER_LAUNCHER (e.g. ccache) to speed
# up the builds.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <base-ref> [work-dir]" >&2
  exit 2
fi
base_ref=$1
repo=$(git rev-parse --show-toplevel)
work=${2:-$(mktemp -d -t plan_bytes_diff.XXXXXX)}
mkdir -p "$work"

base=$(git -C "$repo" merge-base "$base_ref" HEAD)
faults='42:decode.fail=0.1,stage.panorama_fail=0.3,stage.layout_fail=0.2,stage.arrange_fail=1.0'
printf 'simd.force_scalar = true\n' > "$work/scalar.conf"

# name|cli arguments (word-split on purpose)
runs=(
  "lab1-t1|--building lab1 --threads 1"
  "lab1-t0|--building lab1 --threads 0"
  "lab1-n3|--building lab1 --nodes 3"
  "lab2-t1|--building lab2 --threads 1"
  "lab2-t0|--building lab2 --threads 0"
  "lab2-n3|--building lab2 --nodes 3"
  "gym-t1|--building gym --threads 1"
  "gym-t0|--building gym --threads 0"
  "gym-n3|--building gym --nodes 3"
  "lab1-faults|--building lab1 --faults $faults"
  "lab1-scalar|--building lab1 --threads 0 --config $work/scalar.conf"
)

# build_and_run <side> <source-dir>: builds crowdmap_cli from the source
# tree and writes <work>/<side>/<name>.cmplan plus the CLI's stdout and
# stderr as <name>.out and <name>.err.
build_and_run() {
  local side=$1 src=$2
  local out="$work/$side"
  mkdir -p "$out"
  echo "== $side: building crowdmap_cli from $src"
  if ! { cmake -S "$src" -B "$out/build" &&
         cmake --build "$out/build" -j "$(nproc)" --target crowdmap_cli; } \
       > "$out/build.log" 2>&1; then
    tail -n 40 "$out/build.log" >&2
    echo "$side: build failed (log: $out/build.log)" >&2
    exit 2
  fi
  local entry name args
  for entry in "${runs[@]}"; do
    name=${entry%%|*}
    args=${entry#*|}
    echo "== $side: $name"
    # shellcheck disable=SC2086
    (cd "$out" && "$out/build/tools/crowdmap_cli" $args \
      --plan "$out/$name.cmplan" > "$out/$name.out" 2> "$out/$name.err") || {
      echo "$side: crowdmap_cli failed on $name (log: $out/$name.err)" >&2
      exit 2
    }
  done
}

rm -rf "$work/base/src"
mkdir -p "$work/base/src"
git -C "$repo" archive "$base" | tar -x -C "$work/base/src"
build_and_run base "$work/base/src"
build_and_run head "$repo"

status=0
for entry in "${runs[@]}"; do
  name=${entry%%|*}
  if cmp -s "$work/base/$name.cmplan" "$work/head/$name.cmplan"; then
    digest=$(sha256sum "$work/head/$name.cmplan" | cut -c1-16)
    echo "same      $name  sha256 $digest"
  else
    echo "DIFFERENT $name: $work/base/$name.cmplan vs $work/head/$name.cmplan"
    status=1
  fi
done
for side in base head; do
  if cmp -s "$work/$side/lab1-t0.cmplan" "$work/$side/lab1-scalar.cmplan"; then
    echo "same      $side lab1-scalar vs $side lab1-t0"
  else
    echo "DIFFERENT $side lab1-scalar vs $side lab1-t0"
    status=1
  fi
done
degradation() { grep -i 'degrad' "$1" || true; }
if [[ "$(degradation "$work/base/lab1-faults.out")" != \
      "$(degradation "$work/head/lab1-faults.out")" ]]; then
  echo "DIFFERENT lab1-faults degradation line:"
  diff <(degradation "$work/base/lab1-faults.out") \
       <(degradation "$work/head/lab1-faults.out") || true
  status=1
fi
echo "degradation (lab1-faults): $(degradation "$work/head/lab1-faults.out")"
echo "base ${base:0:12}  head $(git -C "$repo" rev-parse --short=12 HEAD)$(
  git -C "$repo" diff --quiet HEAD || echo '+edits')  work dir $work"
exit "$status"

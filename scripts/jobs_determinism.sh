#!/usr/bin/env bash
# Determinism smoke for one figure binary: runs it at VROOM_JOBS=1 and
# VROOM_JOBS=4 with VROOM_BENCH_PAGES=<pages>, and fails unless stdout and
# every CSV it exports to VROOM_OUT_DIR are byte-identical between the two.
# Every other VROOM_* variable is cleared so the runs see only these knobs.
#
# Usage: jobs_determinism.sh <bench_binary> <pages>
set -euo pipefail

bench="${1:?usage: jobs_determinism.sh <bench_binary> <pages>}"
pages="${2:?usage: jobs_determinism.sh <bench_binary> <pages>}"

workdir="$(mktemp -d "${TMPDIR:-/tmp}/vroom_jobs.XXXXXX")"
trap 'rm -rf "$workdir"' EXIT

clear_env=()
for var in $(env | sed -n 's/^\(VROOM_[A-Z_]*\)=.*/\1/p'); do
  clear_env+=(-u "$var")
done

for jobs in 1 4; do
  mkdir -p "$workdir/jobs$jobs/csv"
  env "${clear_env[@]}" VROOM_BENCH_PAGES="$pages" VROOM_JOBS="$jobs" \
    VROOM_OUT_DIR="$workdir/jobs$jobs/csv" \
    "$bench" > "$workdir/jobs$jobs/stdout" 2> /dev/null
done

cmp "$workdir/jobs1/stdout" "$workdir/jobs4/stdout"
if [ -z "$(ls -A "$workdir/jobs1/csv")" ]; then
  echo "jobs_determinism.sh: $bench exported no CSVs" >&2
  exit 1
fi
diff -r "$workdir/jobs1/csv" "$workdir/jobs4/csv"
echo "jobs determinism ok: $(basename "$bench") stdout and" \
  "$(ls "$workdir/jobs1/csv" | wc -l) CSVs identical at VROOM_JOBS=1 and 4"

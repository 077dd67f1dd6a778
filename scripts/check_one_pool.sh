#!/usr/bin/env bash
# Lints the simulator for worker pools (DESIGN.md §6): every thread under
# src/ is started by fleet::run_tasks, the one pool that sweeps, the
# deployment passes and anything else parallel run on.
#
# Flags any use of std::thread (other than std::thread::hardware_concurrency),
# std::jthread, std::async or pthread_create in src/ outside the body of
# run_tasks in src/fleet/fleet.cpp. A second pool would bring back a second
# claim loop and a second serial-replay path to keep in step.
#
# Runs as the `check_one_pool` ctest (label: lint). Exit 0 = clean.
set -u

cd "$(dirname "$0")/.." || exit 1

pool_file=src/fleet/fleet.cpp
# Line range of run_tasks' definition: its signature to the closing brace
# at column 0.
range=$(awk '/^void run_tasks\(/ { start = NR }
             start && !end && /^}/ { end = NR }
             END { if (start && end) print start, end }' "${pool_file}")
if [ -z "${range}" ]; then
  echo "[check_one_pool] fleet::run_tasks not found in ${pool_file}" >&2
  exit 1
fi
read -r first last <<< "${range}"

offenders=$(grep -RnE 'std::(thread|jthread|async)\b|pthread_create' src \
                --include='*.cpp' --include='*.h' |
            grep -vE 'std::thread::hardware_concurrency' |
            awk -F: -v f="${pool_file}" -v a="${first}" -v b="${last}" \
                '!($1 == f && $2 >= a && $2 <= b)')

if [ -n "${offenders}" ]; then
  echo "[check_one_pool] threads started outside fleet::run_tasks" \
       "(${pool_file}:${first}-${last}):" >&2
  printf '%s\n' "${offenders}" | sed 's/^/  /' >&2
  exit 1
fi
echo "[check_one_pool] one worker pool: fleet::run_tasks; ok"

#!/usr/bin/env bash
# Lints the TCP and link layers for heap-allocating containers and
# callables (DESIGN.md §10): every segment of every page load passes
# through them, so they hold callbacks in sim::SmallFn and queues in flat
# vectors (sim::Fifo), never std::function or std::deque.
#
# std::function heap-allocates any capture over 16 bytes, and std::deque
# allocates a map and a node per queue and has a throwing move constructor,
# so a vector of structs holding one copies on growth. Comments are not
# checked.
#
# Runs as the `check_hot_path_callables` ctest (label: lint). Exit 0 = clean.
set -u

cd "$(dirname "$0")/.." || exit 1

files="src/net/tcp.h src/net/tcp.cpp src/net/link.h src/net/link.cpp"
for f in ${files}; do
  if [ ! -f "${f}" ]; then
    echo "[check_hot_path_callables] ${f} not found" >&2
    exit 1
  fi
done

# shellcheck disable=SC2086
offenders=$(grep -nE 'std::(function|deque)\b|<(functional|deque)>' ${files} |
            awk -F: '{ code = $0; sub(/^[^:]*:[^:]*:/, "", code);
                       sub(/\/\/.*/, "", code);
                       if (code ~ /std::(function|deque)|<(functional|deque)>/)
                         print }')

if [ -n "${offenders}" ]; then
  echo "[check_hot_path_callables] std::function or std::deque on the" \
       "TCP/link hot path (use sim::SmallFn and sim::Fifo):" >&2
  printf '%s\n' "${offenders}" | sed 's/^/  /' >&2
  exit 1
fi
echo "[check_hot_path_callables] TCP and link use SmallFn and flat queues; ok"

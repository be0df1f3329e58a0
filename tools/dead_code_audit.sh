#!/usr/bin/env bash
# Dead-code audit: lists the functions of libchronos.a that no shipped binary
# links, and fails unless each one is named in tools/dead_code_allowlist.txt.
#
#   tools/dead_code_audit.sh [BUILD_DIR]
#
# The shipped binaries are `sweeprun` (tools/), every example, the bench
# binaries other than the Google Benchmark `micro_*` ones, and the perf
# ledger's `ledger_probe`; tests are left out on purpose. They are built
# through bench/ledger's CMake at -O0 with -ffunction-sections and linked
# with --gc-sections, so each binary keeps exactly the functions it can
# reach. At -O0 nothing is inlined, so a function called only from its own
# file still counts as used. A function is dead when it is a strong
# (out-of-line, non-inline) `chronos::` symbol of the library that none of
# the binaries defines.
#
# Exit status: 0 when the dead functions are exactly the allowlist, 1 when a
# dead function is not allowlisted or an allowlisted one is no longer dead
# (it gained a caller or was deleted: drop its line), 2 on a build failure.
#
# BUILD_DIR is kept for incremental reruns; without it a temporary build
# directory is made and removed. JOBS sets the build parallelism (default 4).
set -euo pipefail

export LC_ALL=C  # one collation for sort and comm

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
allowlist="$root/tools/dead_code_allowlist.txt"
jobs=${JOBS:-4}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
build=${1:-$tmp/build}
mkdir -p "$build"

targets=(ledger_probe)
for source in "$root"/tools/*.cpp "$root"/examples/*.cpp "$root"/bench/*.cpp; do
  name=$(basename "$source" .cpp)
  case $name in micro_*) continue ;; esac
  targets+=("$name")
done

if ! cmake -S "$root/bench/ledger" -B "$build" -DCMAKE_BUILD_TYPE=Release \
       -DCMAKE_CXX_FLAGS_RELEASE="-O0 -DNDEBUG" \
       -DCMAKE_CXX_FLAGS=-ffunction-sections \
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections > "$build/audit.log" 2>&1 ||
   ! cmake --build "$build" -j "$jobs" --target "${targets[@]}" \
       >> "$build/audit.log" 2>&1; then
  echo "dead_code_audit: build failed; see $build/audit.log" >&2
  tail -n 20 "$build/audit.log" >&2
  exit 2
fi

library=$(find "$build" -name libchronos.a | head -n 1)

# Strong global text symbols of the library, mangled (no spaces to split on).
nm --defined-only "$library" | awk '$2 == "T" { print $3 }' | sort -u \
  > "$tmp/library"
: > "$tmp/linked"
for target in "${targets[@]}"; do
  binary=$(find "$build" -type f -name "$target" -perm -u+x | head -n 1)
  if [ -z "$binary" ]; then
    echo "dead_code_audit: no binary for target $target" >&2
    exit 2
  fi
  nm --defined-only "$binary" | awk 'NF == 3 { print $3 }' >> "$tmp/linked"
done
sort -u -o "$tmp/linked" "$tmp/linked"

comm -23 "$tmp/library" "$tmp/linked" | c++filt | grep '^chronos::' | sort \
  > "$tmp/dead" || true
sed 's/#.*//; s/[[:space:]]*$//; /^$/d' "$allowlist" | sort > "$tmp/allowed"

status=0
echo "dead_code_audit: $(wc -l < "$tmp/dead") library functions no shipped" \
     "binary links (${#targets[@]} binaries)"
while IFS= read -r name; do
  echo "  DEAD (not allowlisted): $name"
  status=1
done < <(comm -23 "$tmp/dead" "$tmp/allowed")
while IFS= read -r name; do
  echo "  STALE (allowlisted, not dead): $name"
  status=1
done < <(comm -13 "$tmp/dead" "$tmp/allowed")
if [ "$status" -eq 0 ]; then
  echo "  all $(wc -l < "$tmp/allowed") are allowlisted test oracles or seams"
fi
exit "$status"

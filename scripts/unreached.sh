#!/usr/bin/env bash
# Reachability check for the library surface: every out-of-line
# function the libvaq libraries define must survive the link of at
# least one shipped binary, or be listed in scripts/unreached.allow
# with the reason it stays.
#
#   scripts/unreached.sh      # build into build-unreached/ and diff
#
# The shipped binaries are vaqc, vaqd, vaqfleet, the examples, the
# paper and perf benches (everything the top-level build makes with
# BUILD_TESTING=OFF) and vaqbench (its own build under vaqbench/).
# Everything is compiled at -O0, so no call is inlined away, with one
# section per function, and linked with --gc-sections, so a binary
# keeps exactly the functions it can reach. A global text (`T`)
# symbol of a library archive that no binary keeps is unreached.
# Header-inline and template functions are weak (`W`) and not
# counted.
#
# Each allowlist line is `<reason> | <demangled symbol>`, where the
# reason is one of
#   oracle       a test compares production code against it
#   probe        a test reads state through it that no other public
#                call exposes
#   api <name>   a documented user-facing entry point
# The check fails on an unreached symbol that is not listed, on a
# listed symbol that is now reached or no longer defined (so the list
# cannot go stale), and on a malformed or repeated line. It needs only
# cmake, nm and c++filt.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
OUT=build-unreached
ALLOW=scripts/unreached.allow
CONFIG=(-DCMAKE_BUILD_TYPE=None
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -B "$OUT" -S . -DBUILD_TESTING=OFF "${CONFIG[@]}" >/dev/null
cmake --build "$OUT" -j "$JOBS" >/dev/null
cmake -B "$OUT/vaqbench" -S vaqbench "${CONFIG[@]}" >/dev/null
cmake --build "$OUT/vaqbench" --target vaqbench -j "$JOBS" >/dev/null

text_symbols() {
    nm --defined-only "$@" | awk '$2 == "T" { print $3 }' | sort -u
}

LIBS=("$OUT"/src/*/libvaq_*.a)
BINARIES=()
for binary in "$OUT"/tools/* "$OUT"/examples/* "$OUT"/bench/* \
    "$OUT"/vaqbench/vaqbench; do
    [ -f "$binary" ] && [ -x "$binary" ] && BINARIES+=("$binary")
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
text_symbols "${LIBS[@]}" >"$WORK/defined"
for binary in "${BINARIES[@]}"; do
    text_symbols "$binary"
done | sort -u >"$WORK/reached"
comm -23 "$WORK/defined" "$WORK/reached" | c++filt | sort -u \
    >"$WORK/unreached"

STATUS=0
grep -v -e '^[[:space:]]*#' -e '^[[:space:]]*$' "$ALLOW" >"$WORK/lines" || true
while IFS= read -r line; do
    reason="${line%%|*}"
    reason="$(sed 's/[[:space:]]*$//' <<<"$reason")"
    if [ "$reason" = "$line" ] ||
        ! grep -Eq '^(oracle|probe|api [^[:space:]].*)$' <<<"$reason"; then
        echo "unreached: malformed allowlist line: $line" >&2
        STATUS=1
    fi
done <"$WORK/lines"
sed 's/^[^|]*|[[:space:]]*//' "$WORK/lines" | sort >"$WORK/listed"
uniq -d "$WORK/listed" | sed 's/^/unreached: listed twice: /' >&2
[ -z "$(uniq -d "$WORK/listed")" ] || STATUS=1
sort -u -o "$WORK/listed" "$WORK/listed"

comm -23 "$WORK/unreached" "$WORK/listed" >"$WORK/unlisted"
comm -13 "$WORK/unreached" "$WORK/listed" >"$WORK/stale"
if [ -s "$WORK/unlisted" ]; then
    echo "unreached: no shipped binary reaches these library" \
        "functions; delete them or list them in $ALLOW:" >&2
    sed 's/^/  /' "$WORK/unlisted" >&2
    STATUS=1
fi
if [ -s "$WORK/stale" ]; then
    echo "unreached: these $ALLOW entries are reached or no longer" \
        "defined; remove them:" >&2
    sed 's/^/  /' "$WORK/stale" >&2
    STATUS=1
fi
[ "$STATUS" -eq 0 ] || exit 1
echo "unreached: $(wc -l <"$WORK/defined") library functions," \
    "${#BINARIES[@]} binaries, $(wc -l <"$WORK/unreached") unreached" \
    "(all listed in $ALLOW)"

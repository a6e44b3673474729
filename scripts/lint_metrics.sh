#!/usr/bin/env bash
# Metric-name lint: every metric name the code registers must follow
# the innet_[a-z0-9_]+ convention (FORMATS.md §9) and appear in the §9
# metrics table, and every name the table documents must be registered
# by the code, so the exposition and its documentation cannot drift
# apart silently in either direction. Run from the repository root (CI and `make
# lint-metrics` both do).
set -euo pipefail

FORMATS=docs/FORMATS.md

# Metric names as the code registers them: innet_* string literals in
# non-test Go sources. A literal ending in `_` is a family prefix the
# code completes at runtime (innet_platform_<suffix>_total); its
# expansions are covered by table shorthand rows and cannot be linted
# literally, so prefixes are skipped here and matched below.
code="$(grep -rhoE '"innet_[a-zA-Z0-9_]*"' --include='*.go' --exclude='*_test.go' cmd internal |
    tr -d '"' | grep -v '_$' | sort -u)"
# Runtime-completed families as "prefix suffix" pairs, read from the
# concatenation that registers them: "innet_platform_"+c.suffix+"_total".
families="$(grep -rhoE '"innet_[a-z0-9_]*_"\+[^"]*"[a-z0-9_]*"' --include='*.go' --exclude='*_test.go' cmd internal |
    sed -E 's/^"([^"]*)"\+[^"]*"([^"]*)"$/\1 \2/' | sort -u)"
if [ -z "$code" ]; then
    echo "lint-metrics: found no metric literals — grep broken?" >&2
    exit 1
fi

fail=0
while read -r name; do
    if ! [[ "$name" =~ ^innet_[a-z0-9_]+$ ]]; then
        echo "lint-metrics: $name violates innet_[a-z0-9_]+ naming" >&2
        fail=1
    fi
done <<<"$code"

# Documented names: backtick code spans in the §9 table. Label groups
# ({reason=...}, recognizable by the `=`) are stripped; name shorthand
# groups ({hits,misses}) are brace-expanded by the shell.
docs="$(sed -n '/^## 9\./,/^## 10\./p' "$FORMATS" |
    grep -oE '`innet_[^`]*`' | tr -d '`' |
    sed -E 's/\{[^}]*=[^}]*\}//g' |
    grep -E '^innet_[a-z0-9_{},]+$' |
    while read -r pat; do eval "printf '%s\n' $pat"; done | sort -u)"

while read -r name; do
    if ! grep -qxF "$name" <<<"$docs"; then
        echo "lint-metrics: $name missing from $FORMATS §9 metrics table" >&2
        fail=1
    fi
done <<<"$code"

# The reverse direction: a documented name must be a registered literal
# or carry both the prefix and the suffix of a runtime-completed family.
while read -r name; do
    grep -qxF "$name" <<<"$code" && continue
    found=0
    while read -r prefix suffix; do
        if [[ -n "$prefix" && "$name" == "$prefix"*"$suffix" ]]; then
            found=1
            break
        fi
    done <<<"$families"
    if [ "$found" -eq 0 ]; then
        echo "lint-metrics: $name documented in $FORMATS §9 but not registered by the code" >&2
        fail=1
    fi
done <<<"$docs"

if [ "$fail" -ne 0 ]; then
    echo "lint-metrics: FAILED" >&2
    exit 1
fi
echo "lint-metrics: $(wc -l <<<"$code" | tr -d ' ') metric names OK"

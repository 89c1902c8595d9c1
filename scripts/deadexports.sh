#!/bin/sh
# Dead-export gate: every exported top-level function and method declared in
# a non-test .go file under internal/ or cmd/ must be named on some other
# non-test, non-comment line under internal/, cmd/, examples/ or bench/.
# The scan is by name, so one caller of any method called Run keeps every
# Run. A name that no such line mentions is dead code unless
# scripts/deadexports.allow lists it, one "path name reason" per line:
# public API (docs/API.md), a standard interface method (Unwrap,
# MarshalText), or a test hook that another package's tests call.
# An allowlist entry whose name is gone or has gained a caller fails too,
# so the list stays exact.
#
# Usage: scripts/deadexports.sh   (exits non-zero listing every mismatch)
set -eu
cd "$(dirname "$0")/.."

allow=scripts/deadexports.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find internal cmd examples bench -name '*.go' ! -name '*_test.go' | sort >"$tmp/corpus"

# dead: "path name" for each exported declaration whose name occurs on no
# line but its own. Comments are stripped first: a line's text from "//" on,
# and whole lines inside /* */ blocks.
awk -v list="$tmp/corpus" '
	BEGIN { while ((getline f <list) > 0) ARGV[ARGC++] = f }
	FNR == 1 { block = 0 }
	{
		line = $0
		if (block) {
			if (line !~ /\*\//) next
			sub(/.*\*\//, "", line)
			block = 0
		}
		if (line ~ /^[ \t]*\/\*/ && line !~ /\*\//) { block = 1; next }
		sub(/\/\/.*/, "", line)
		if (FILENAME ~ /^(internal|cmd)\// && match(line, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*/)) {
			decl = substr(line, RSTART, RLENGTH)
			sub(/.* /, "", decl)
			ndecl++
			dpath[ndecl] = FILENAME
			dname[ndecl] = decl
		}
		n = split(line, words, /[^A-Za-z0-9_]+/)
		delete seen
		for (i = 1; i <= n; i++) {
			w = words[i]
			if (w != "" && !(w in seen)) {
				seen[w] = 1
				lines[w]++
			}
		}
	}
	END {
		for (i = 1; i <= ndecl; i++)
			if (lines[dname[i]] == 1) print dpath[i], dname[i]
	}
' | sort -u >"$tmp/dead"

grep -vE '^[[:space:]]*(#|$)' "$allow" | awk '{ print $1, $2 }' | sort -u >"$tmp/allowed"

fail=0
comm -23 "$tmp/dead" "$tmp/allowed" >"$tmp/new"
if [ -s "$tmp/new" ]; then
	echo "deadexports: exported with no non-test caller (delete it, or allowlist it in $allow with a reason):" >&2
	sed 's/^/	/' "$tmp/new" >&2
	fail=1
fi
comm -13 "$tmp/dead" "$tmp/allowed" >"$tmp/stale"
if [ -s "$tmp/stale" ]; then
	echo "deadexports: allowlisted in $allow but gone or now called (drop the entry):" >&2
	sed 's/^/	/' "$tmp/stale" >&2
	fail=1
fi
exit $fail

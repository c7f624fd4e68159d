#!/bin/sh
# netlines.sh — net non-test Go lines changed since a base revision.
#
# Usage: scripts/netlines.sh [base]   (base defaults to HEAD~1)
#
# Compares base with the working tree (committed and uncommitted
# changes alike) and counts lines added and removed in *.go files that
# are neither *_test.go nor under a testdata/ directory, one row per
# top-level directory ("." for files at the repository root) and a
# total. Net is added minus removed, so a negative net means lines were
# removed. Run from anywhere inside the repository.
set -eu
base=${1:-HEAD~1}
cd "$(git rev-parse --show-toplevel)"
git diff --numstat "$base" -- '*.go' |
	awk -F '\t' '
	{
		path = $3
		# A rename shows as "dir/{old => new}.go" or "old => new".
		sub(/\{[^}]* => /, "", path); sub(/\}/, "", path); sub(/^.* => /, "", path)
		if (path ~ /_test\.go$/ || path ~ /(^|\/)testdata\//) next
		n = split(path, parts, "/")
		dir = n > 1 ? parts[1] : "."
		add[dir] += $1; del[dir] += $2; ta += $1; td += $2
	}
	END {
		printf "%-12s %8s %8s %8s\n", "dir", "added", "removed", "net"
		for (d in add) printf "%-12s %8d %8d %+8d\n", d, add[d], del[d], add[d] - del[d] | "sort"
		close("sort")
		printf "%-12s %8d %8d %+8d\n", "total", ta, td, ta - td
	}'

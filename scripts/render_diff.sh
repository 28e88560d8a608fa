#!/bin/sh
# render_diff.sh — byte-identity check for refactors
# (make render-diff BASE=<rev>).
#
# Builds capsim twice, from a `git archive` of BASE and from the working
# tree, then compares the footer-stripped renders of `-experiment all` with
# cmp at -parallel 1, at -parallel 2 and at -seed 1 (default budgets). The
# per-experiment timing footers are the only lines allowed to differ. The
# -parallel 1 runs also record the flight ledger (-ledger-out, gzip), and
# the two decompressed ledgers must match from line 2 on: line 1 stamps the
# time, and only a serial run numbers its run columns in a fixed order
# (ids follow completion order). Both builds and every render go to a
# temporary directory, never into the checkout. Not part of `make ci`: it
# needs a base revision.
set -eu

BASE=${1:?usage: scripts/render_diff.sh <base revision>}
GO=${GO:-go}
ROOT=$(git rev-parse --show-toplevel)
TMP=$(mktemp -d "${TMPDIR:-/tmp}/capsim_render_diff.XXXXXX")
trap 'rm -rf "$TMP"' EXIT
FOOTER='^(.* in [0-9.]*m\?s)$'

mkdir "$TMP/base"
git -C "$ROOT" archive "$BASE" | tar -x -C "$TMP/base"
(cd "$TMP/base" && $GO build -o "$TMP/capsim.base" ./cmd/capsim)
(cd "$ROOT" && $GO build -o "$TMP/capsim.new" ./cmd/capsim)

status=0
for args in "-parallel 1" "-parallel 2" "-seed 1"; do
	for side in base new; do
		ledger=
		if [ "$args" = "-parallel 1" ]; then
			ledger="-ledger-out $TMP/$side.ledger.gz"
		fi
		"$TMP/capsim.$side" -experiment all $args $ledger | grep -v "$FOOTER" > "$TMP/$side.txt"
	done
	if cmp -s "$TMP/base.txt" "$TMP/new.txt"; then
		echo "render-diff: identical to $BASE at $args"
	else
		echo "render-diff: renders differ from $BASE at $args:" >&2
		diff "$TMP/base.txt" "$TMP/new.txt" | head -40 >&2 || true
		status=1
	fi
done

for side in base new; do
	gzip -dc "$TMP/$side.ledger.gz" | tail -n +2 > "$TMP/$side.ledger"
done
lines=$(wc -l < "$TMP/new.ledger")
if [ "$lines" -gt 0 ] && cmp -s "$TMP/base.ledger" "$TMP/new.ledger"; then
	echo "render-diff: flight ledger identical to $BASE at -parallel 1 ($lines lines after the header)"
else
	echo "render-diff: flight ledgers differ from $BASE at -parallel 1 ($lines lines after the header):" >&2
	cmp "$TMP/base.ledger" "$TMP/new.ledger" >&2 || true
	status=1
fi
exit $status

#!/bin/sh
# study_cache_smoke.sh — CI gate for the persistent study cache as the
# channel between processes (make bench-study-cache-smoke).
#
# Proves the split-and-merge recipe end to end at tiny budgets:
#
#   1. Two processes run disjoint -experiment subsets against one
#      -study-cache directory; a third runs their union against it. Its
#      render is byte-identical to the union run with no cache at all.
#   2. The merge run reused the two processes' work: its run manifest shows
#      memo.persist_hits > 0 and memo.persist_misses == 0 (every study row
#      was served from the cache, none recomputed).
#
# The CLI's per-experiment timing footers are the only lines stripped from
# comparisons (same idiom as bench-obs-smoke). Requires: go, jq. Writes only
# under /tmp.
set -eu

GO=${GO:-go}
TMP=/tmp/capsim_study_cache_smoke
rm -rf "$TMP"
mkdir -p "$TMP"
BIN="$TMP/capsim"
B="-parallel 2 -queue-instrs 3000 -cache-refs 20000 -cache-warm 5000"
A_IDS=fig7,fig10
B_IDS=fig11,ablation-switch
FOOTER='^([a-z0-9-]* in [0-9.]*m\?s)$'

fail() {
	echo "study-cache-smoke FAIL: $*" >&2
	exit 1
}

$GO build -o "$BIN" ./cmd/capsim

# --- baseline: one process, no persistent cache ----------------------------
"$BIN" -experiment "$A_IDS,$B_IDS" $B | grep -v "$FOOTER" > "$TMP/base.txt"

# --- 1. two processes over disjoint subsets, then the merge ----------------
"$BIN" -experiment "$A_IDS" $B -study-cache "$TMP/cache" > /dev/null
"$BIN" -experiment "$B_IDS" $B -study-cache "$TMP/cache" > /dev/null
"$BIN" -experiment "$A_IDS,$B_IDS" $B -study-cache "$TMP/cache" \
	-metrics-out "$TMP/merge.manifest.json" 2>/dev/null \
	| grep -v "$FOOTER" > "$TMP/merged.txt"
cmp -s "$TMP/base.txt" "$TMP/merged.txt" || {
	diff "$TMP/base.txt" "$TMP/merged.txt" >&2 || true
	fail "merge over the shared study cache differs from the uncached run"
}

# --- 2. the merge reused the two processes' rows ---------------------------
hits=$(jq -r '.final.counters["memo.persist_hits"] // 0' "$TMP/merge.manifest.json")
misses=$(jq -r '.final.counters["memo.persist_misses"] // 0' "$TMP/merge.manifest.json")
[ "$hits" -gt 0 ] || fail "merge took no persistent-cache hits (hits=$hits)"
[ "$misses" -eq 0 ] || fail "merge recomputed $misses study rows the subset runs should have published"

echo "study-cache-smoke ok (merge of two -experiment subsets byte-identical; served $hits rows from the shared cache)"

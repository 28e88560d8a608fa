#!/bin/sh
# shard_smoke.sh — CI gate for the sharded sweep tier (make bench-shard-smoke).
#
# Proves the shard/merge contract end to end on a tiny-budget fig10:
#
#   1. Static shards: running bucket 0/2 and 1/2 as separate processes
#      (each publishing only its owned study rows to a shared persistent
#      cache) and then merging — a plain run against the warm cache —
#      renders byte-identical to a never-sharded baseline.
#   2. The merge actually reused the shards' work: its run manifest shows
#      memo.persist_hits > 0 and memo.persist_misses == 0 (every study row
#      was served from the cache, none recomputed).
#
# The CLI's timing footer is the only line stripped from comparisons (same
# idiom as bench-obs-smoke). Requires: go, jq. Writes only under /tmp.
set -eu

GO=${GO:-go}
TMP=/tmp/capsim_shard_smoke
rm -rf "$TMP"
mkdir -p "$TMP"
BIN="$TMP/capsim"
B="-parallel 2 -queue-instrs 3000"

fail() {
	echo "shard-smoke FAIL: $*" >&2
	exit 1
}

$GO build -o "$BIN" ./cmd/capsim

# --- baseline: never sharded, no persistent cache --------------------------
"$BIN" -experiment fig10 $B | grep -v '^(fig10 in ' > "$TMP/base.txt"

# --- 1. static shards + merge ----------------------------------------------
"$BIN" -experiment fig10 $B -shard 0/2 -study-cache "$TMP/static" 2>/dev/null \
	> "$TMP/shard0.txt"
"$BIN" -experiment fig10 $B -shard 1/2 -study-cache "$TMP/static" 2>/dev/null \
	> "$TMP/shard1.txt"
# Shard workers render nothing: stdout is reserved for the merge.
[ -s "$TMP/shard0.txt" ] && fail "static shard 0/2 wrote to stdout"
[ -s "$TMP/shard1.txt" ] && fail "static shard 1/2 wrote to stdout"
"$BIN" -experiment fig10 $B -study-cache "$TMP/static" \
	-metrics-out "$TMP/merge.manifest.json" 2>/dev/null \
	| grep -v '^(fig10 in ' > "$TMP/merged.txt"
cmp -s "$TMP/base.txt" "$TMP/merged.txt" || {
	diff "$TMP/base.txt" "$TMP/merged.txt" >&2 || true
	fail "static-shard merge differs from unsharded baseline"
}

# --- 2. the merge reused the shards' rows ----------------------------------
hits=$(jq -r '.final.counters["memo.persist_hits"] // 0' "$TMP/merge.manifest.json")
misses=$(jq -r '.final.counters["memo.persist_misses"] // 0' "$TMP/merge.manifest.json")
[ "$hits" -gt 0 ] || fail "merge took no persistent-cache hits (hits=$hits)"
[ "$misses" -eq 0 ] || fail "merge recomputed $misses study rows the shards should have published"

echo "shard-smoke ok (static-shard merge byte-identical; merge served $hits rows from the shard cache)"

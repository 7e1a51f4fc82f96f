#!/usr/bin/env bash
# cache_smoke.sh — the incremental-sweep path's rot protection: prove that
# a warm rerun against a populated result store (a) reports every
# previously-computed cell as a cache hit on /metrics, (b) simulates only
# the cells the cold run did not cover, and (c) still merges to the exact
# committed golden digest (testdata/dispatch_smoke.sha256) — then tear the
# store's tail frame and prove the corrupted cell is detected, recomputed,
# and never served as data. Last, prove that a coordinator and a worker
# sharing one store directory write each cell into it once.
#
# Three sweeps against one store directory:
#
#   1. cold   subset plan (2 of the 4 smoke cells) populates the store
#   2. warm   full smoke plan: 2 hits at carve time, workers simulate the
#             2 new cells only, digest == golden
#   3. torn   the store's last frame is truncated mid-frame; the reopen
#             drops it as corrupt, that one cell re-simulates, digest
#             still == golden
#
# and one against a fresh directory:
#
#   4. shared subset plan with the directory given to -serve and to its
#             one -work: each cell is inserted by both, yet results.store
#             is byte for byte the size of step 1's store, and the merged
#             output equals step 1's
#
# The full plan must stay in lockstep with scripts/dispatch_smoke.sh and
# TestDispatchSmokeGoldenDigest:
#   -seed 7 -pairs 1/low,3/low,2/high,5/high -scenario dsl
#
# Usage: scripts/cache_smoke.sh [port]   (default 18743)
set -euo pipefail

cd "$(dirname "$0")/.."

port="${1:-18743}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

subset_pairs="1/low,3/low"
subset_size=2
full_pairs="1/low,3/low,2/high,5/high"
full_size=4

digest() {
    if command -v sha256sum >/dev/null 2>&1; then
        sha256sum "$1" | cut -d' ' -f1
    else
        shasum -a 256 "$1" | cut -d' ' -f1
    fi
}

# metric NAME BODY — extract a counter's value from exposition text.
metric() {
    printf '%s\n' "$2" | awk -v name="$1" '$1 == name { print $2; found = 1 } END { if (!found) print "absent" }'
}

# sweep LABEL PAIRS [STORE] — run a coordinator (with the store,
# $out/store unless STORE is given) plus two workers on the given pair
# spec; with STORE, one worker, given the same store directory. Leaves
# merged JSON, serve/worker logs, and the mid-sweep /metrics scrape under
# $out/$LABEL.*.
sweep() {
    local label="$1" pairs="$2" store="${3:-$out/store}"
    "$out/turbulence" -serve "127.0.0.1:$port" -seed 7 \
        -pairs "$pairs" -scenario dsl -serve-shards 2 \
        -result-store "$store" \
        >"$out/$label.json" 2>"$out/$label.serve.log" &
    local serve_pid=$!
    sleep 1
    # Scrape before the workers join: the store is consulted once, at plan
    # carve time, so the cache counters are already final here.
    if ! curl -fsS --max-time 5 "http://127.0.0.1:$port/metrics" >"$out/$label.metrics"; then
        echo "cache smoke: $label: GET /metrics failed" >&2
        sed 's/^/  serve: /' "$out/$label.serve.log" >&2
        exit 1
    fi
    local w1_pid w2_pid=""
    if [ $# -ge 3 ]; then
        "$out/turbulence" -work "127.0.0.1:$port" -parallel 1 -result-store "$store" 2>"$out/$label.w1.log" &
        w1_pid=$!
    else
        "$out/turbulence" -work "127.0.0.1:$port" -parallel 1 2>"$out/$label.w1.log" &
        w1_pid=$!
        "$out/turbulence" -work "127.0.0.1:$port" -parallel 1 2>"$out/$label.w2.log" &
        w2_pid=$!
    fi
    local serve_rc=0
    wait "$serve_pid" || serve_rc=$?
    wait "$w1_pid" || true
    if [ -n "$w2_pid" ]; then wait "$w2_pid" || true; fi
    if [ "$serve_rc" -ne 0 ]; then
        echo "cache smoke: $label: coordinator failed (rc=$serve_rc)" >&2
        sed 's/^/  serve: /' "$out/$label.serve.log" >&2
        sed 's/^/  w1: /' "$out/$label.w1.log" >&2
        if [ -n "$w2_pid" ]; then sed 's/^/  w2: /' "$out/$label.w2.log" >&2; fi
        exit 1
    fi
}

# simulated LABEL — total cells the workers actually ran in a sweep, read
# off the per-shard "running shard i/n (k cells)" lines.
simulated() {
    cat "$out/$1.w1.log" "$out/$1.w2.log" 2>/dev/null |
        sed -n 's/.*running shard [0-9/]* (\([0-9]*\) cells).*/\1/p' |
        awk '{ n += $1 } END { print n + 0 }'
}

# expect LABEL NAME WANT — assert one /metrics counter.
expect() {
    local got
    got="$(metric "$2" "$(cat "$out/$1.metrics")")"
    if [ "$got" != "$3" ]; then
        echo "cache smoke: $1: $2 = $got, want $3" >&2
        grep '^turbulence_cache' "$out/$1.metrics" >&2 || true
        exit 1
    fi
}

go build -o "$out/turbulence" ./cmd/turbulence
want="$(cut -d' ' -f1 testdata/dispatch_smoke.sha256)"

# --- 1. cold: the subset populates the store -------------------------------
sweep cold "$subset_pairs"
expect cold turbulence_cache_hits_total 0
expect cold turbulence_cache_misses_total "$subset_size"
if [ "$(simulated cold)" -ne "$subset_size" ]; then
    echo "cache smoke: cold run simulated $(simulated cold) cells, want $subset_size" >&2
    exit 1
fi
cold_bytes="$(wc -c <"$out/store/results.store")"

# --- 2. warm: the superset hits on every cold cell -------------------------
sweep warm "$full_pairs"
expect warm turbulence_cache_hits_total "$subset_size"
expect warm turbulence_cache_misses_total "$((full_size - subset_size))"
expect warm turbulence_cache_corrupt_frames_total 0
fresh="$(simulated warm)"
if [ "$fresh" -ne "$((full_size - subset_size))" ]; then
    echo "cache smoke: warm run simulated $fresh cells, want $((full_size - subset_size)) (cache not serving)" >&2
    exit 1
fi
got="$(digest "$out/warm.json")"
if [ "$got" != "$want" ]; then
    echo "cache smoke: warm merged digest $got != committed golden $want" >&2
    echo "(cached cells must merge byte-identically to fresh simulation)" >&2
    exit 1
fi

# --- 3. torn: a truncated tail frame is a miss, never data -----------------
# Chop into the last appended frame. The reopen must drop it as corrupt,
# re-simulate exactly that cell, and still merge to the golden digest.
store_file="$out/store/results.store"
size="$(wc -c <"$store_file")"
truncate -s "$((size - 7))" "$store_file" 2>/dev/null ||
    dd if=/dev/null of="$store_file" bs=1 seek="$((size - 7))" 2>/dev/null
sweep torn "$full_pairs"
expect torn turbulence_cache_corrupt_frames_total 1
expect torn turbulence_cache_hits_total "$((full_size - 1))"
expect torn turbulence_cache_misses_total 1
if [ "$(simulated torn)" -ne 1 ]; then
    echo "cache smoke: torn run simulated $(simulated torn) cells, want exactly the corrupted one" >&2
    exit 1
fi
got="$(digest "$out/torn.json")"
if [ "$got" != "$want" ]; then
    echo "cache smoke: post-corruption digest $got != committed golden $want" >&2
    exit 1
fi

# --- 4. shared: one directory for -serve and -work holds each cell once ----
# The worker inserts each cell it simulates and the coordinator inserts
# the shipped result again; the second insert must find the first.
sweep shared "$subset_pairs" "$out/shared-store"
expect shared turbulence_cache_misses_total "$subset_size"
if [ "$(simulated shared)" -ne "$subset_size" ]; then
    echo "cache smoke: shared run simulated $(simulated shared) cells, want $subset_size" >&2
    exit 1
fi
shared_bytes="$(wc -c <"$out/shared-store/results.store")"
if [ "$shared_bytes" -ne "$cold_bytes" ]; then
    echo "cache smoke: shared store holds $shared_bytes bytes, want $cold_bytes (step 1's serve-only store): a cell was written twice" >&2
    exit 1
fi
if ! cmp -s "$out/cold.json" "$out/shared.json"; then
    echo "cache smoke: shared-store merged output differs from the serve-only cold run" >&2
    exit 1
fi

echo "cache smoke ok: $subset_size/$full_size cells served warm, torn frame recomputed, digest $want throughout, shared store holds each cell once ($shared_bytes bytes)"

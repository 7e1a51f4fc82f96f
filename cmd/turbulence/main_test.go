package main

import (
	"strings"
	"testing"

	"turbulence"
)

// TestShardIDsStrict pins the strict -shard parser: good specs slice the
// id list stridedly, and every malformed spec is rejected rather than
// silently misread.
func TestShardIDsStrict(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e"}
	got, err := shardIDs(ids, "1/2")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "b,d" {
		t.Fatalf("shard 1/2 = %v", got)
	}
	got, err = shardIDs(ids, "0/1")
	if err != nil || len(got) != 5 {
		t.Fatalf("shard 0/1 = %v, %v", got, err)
	}
	for _, bad := range []string{"", "1", "1/", "/3", "2/2", "3/2", "-1/2", "1/0", "1/-2", "1/34x", "x/3", "1/3/5", "1 / 3"} {
		if _, err := shardIDs(ids, bad); err == nil {
			t.Errorf("shard spec %q accepted", bad)
		}
	}
}

// TestModeConflicts pins the -serve/-work mutual-exclusion rules.
func TestModeConflicts(t *testing.T) {
	ok := func(serve, work, experiment, shard, pairs, scenario, checkpoint string) {
		t.Helper()
		if err := modeConflicts(serve, work, experiment, shard, pairs, scenario, checkpoint, "", false, "", "", "", false); err != nil {
			t.Errorf("unexpected conflict: %v", err)
		}
	}
	bad := func(serve, work, experiment, shard, pairs, scenario, checkpoint, want string) {
		t.Helper()
		err := modeConflicts(serve, work, experiment, shard, pairs, scenario, checkpoint, "", false, "", "", "", false)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("modeConflicts(%q,%q,%q,%q,%q,%q,%q) = %v, want mention of %s",
				serve, work, experiment, shard, pairs, scenario, checkpoint, err, want)
		}
	}
	// The classic single-process modes stay unconstrained.
	ok("", "", "table1", "1/3", "", "dsl", "")
	// Either service mode alone is fine, serve with plan-shaping flags and
	// a checkpoint too.
	ok(":8080", "", "", "", "1/low,3/l", "dsl", "sweep.ckpt")
	ok("", "host:8080", "", "", "", "", "")
	bad(":8080", "host:8080", "", "", "", "", "", "mutually exclusive")
	bad(":8080", "", "table1", "", "", "", "", "-experiment")
	bad("", "host:8080", "fig01", "", "", "", "", "-experiment")
	bad(":8080", "", "", "0/2", "", "", "", "-shard")
	bad("", "host:8080", "", "1/3", "", "", "", "-shard")
	bad("", "host:8080", "", "", "1/low", "", "", "-pairs")
	bad("", "host:8080", "", "", "", "dsl", "", "-scenario")
	// The journal is coordinator state: -checkpoint needs -serve.
	bad("", "host:8080", "", "", "", "", "sweep.ckpt", "-checkpoint")
	bad("", "", "", "", "", "", "sweep.ckpt", "-checkpoint")

	// -metrics meters the local sweep only; -pprof needs a server.
	check := func(serve, work, metrics string, pprof bool, want string) {
		t.Helper()
		err := modeConflicts(serve, work, "", "", "", "", "", metrics, pprof, "", "", "", false)
		switch {
		case want == "" && err != nil:
			t.Errorf("unexpected conflict: %v", err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("modeConflicts(serve=%q, work=%q, metrics=%q, pprof=%v) = %v, want mention of %s",
				serve, work, metrics, pprof, err, want)
		}
	}
	check("", "", ":9090", false, "")
	check("", "", ":9090", true, "")
	check(":8080", "", "", true, "")
	check(":8080", "", ":9090", false, "-metrics")
	check("", "host:8080", ":9090", false, "-metrics")
	check("", "", "", true, "-pprof")
	check("", "host:8080", "", true, "-pprof")

	// The live transport modes are their own axis: either alone is fine
	// (with or without -metrics), but they never combine with each other or
	// with the simulation service/experiment/shard flags.
	live := func(serve, work, experiment, shard, metrics, listen, play, want string) {
		t.Helper()
		err := modeConflicts(serve, work, experiment, shard, "", "", "", metrics, false, listen, play, "", false)
		switch {
		case want == "" && err != nil:
			t.Errorf("unexpected conflict: %v", err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("modeConflicts(listen=%q, play=%q, serve=%q, work=%q, experiment=%q, shard=%q) = %v, want mention of %s",
				listen, play, serve, work, experiment, shard, err, want)
		}
	}
	live("", "", "", "", "", "127.0.0.1", "", "")
	live("", "", "", "", "", "", "127.0.0.1", "")
	live("", "", "", "", ":9090", "127.0.0.1", "", "")
	live("", "", "", "", ":9090", "", "127.0.0.1", "")
	live("", "", "", "", "", "127.0.0.1", "10.0.0.2", "mutually exclusive")
	live(":8080", "", "", "", "", "127.0.0.1", "", "-serve")
	live("", "host:8080", "", "", "", "127.0.0.1", "", "-serve")
	live(":8080", "", "", "", "", "", "127.0.0.1", "-serve")
	live("", "host:8080", "", "", "", "", "127.0.0.1", "-serve")
	live("", "", "table1", "", "", "127.0.0.1", "", "-experiment")
	live("", "", "fig01", "", "", "", "127.0.0.1", "-experiment")
	live("", "", "", "1/3", "", "127.0.0.1", "", "-shard")
	live("", "", "", "0/2", "", "", "127.0.0.1", "-shard")

	// The result store caches simulated cells, so it needs a mode that
	// simulates them. -adaptive-leases is dispatcher policy.
	cache := func(serve, work, listen, play, resultStore string, adaptive bool, want string) {
		t.Helper()
		err := modeConflicts(serve, work, "", "", "", "", "", "", false, listen, play, resultStore, adaptive)
		switch {
		case want == "" && err != nil:
			t.Errorf("unexpected conflict: %v", err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("modeConflicts(serve=%q, work=%q, listen=%q, play=%q, resultStore=%q, adaptive=%v) = %v, want mention of %s",
				serve, work, listen, play, resultStore, adaptive, err, want)
		}
	}
	// A plain experiment sweep populates the store (its pair runs insert
	// their profiles), and either service mode caches as well.
	cache("", "", "", "", "cache", false, "")
	cache(":8080", "", "", "", "cache", false, "")
	cache("", "host:8080", "", "", "cache", false, "")
	cache(":8080", "", "", "", "cache", true, "")
	cache(":8080", "", "", "", "", true, "")
	// Live transport has no simulated cells to cache.
	cache("", "", "127.0.0.1", "", "cache", false, "-result-store")
	cache("", "", "", "127.0.0.1", "cache", false, "-result-store")
	// Lease sizing is coordinator policy.
	cache("", "", "", "", "", true, "-adaptive-leases")
	cache("", "host:8080", "", "", "", true, "-adaptive-leases")
}

// TestParsePairs pins the -pairs parser: names and suffixes resolve, the
// empty spec means the default axis, and typos fail loudly.
func TestParsePairs(t *testing.T) {
	keys, err := parsePairs("1/low,3/l,6/very-high,2/h")
	if err != nil {
		t.Fatal(err)
	}
	want := []turbulence.PairKey{
		{Set: 1, Class: turbulence.Low},
		{Set: 3, Class: turbulence.Low},
		{Set: 6, Class: turbulence.VeryHigh},
		{Set: 2, Class: turbulence.High},
	}
	if len(keys) != len(want) {
		t.Fatalf("parsed %d keys, want %d", len(keys), len(want))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("key %d = %v, want %v", i, keys[i], want[i])
		}
	}
	if keys, err := parsePairs(""); err != nil || keys != nil {
		t.Fatalf("empty spec = %v, %v (want nil, nil)", keys, err)
	}
	for _, bad := range []string{"1", "1/", "/low", "0/low", "-1/h", "1/medium", "one/low", "1/low,", "1/low 3/low"} {
		if _, err := parsePairs(bad); err == nil {
			t.Errorf("pairs spec %q accepted", bad)
		}
	}
}

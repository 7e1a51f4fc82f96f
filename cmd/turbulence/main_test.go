package main

import (
	"errors"
	"os"
	"os/exec"
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
		if err := modeConflicts(serve, work, experiment, shard, pairs, scenario, checkpoint, "", false, "", "", ""); err != nil {
			t.Errorf("unexpected conflict: %v", err)
		}
	}
	bad := func(serve, work, experiment, shard, pairs, scenario, checkpoint, want string) {
		t.Helper()
		err := modeConflicts(serve, work, experiment, shard, pairs, scenario, checkpoint, "", false, "", "", "")
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
		err := modeConflicts(serve, work, "", "", "", "", "", metrics, pprof, "", "", "")
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
		err := modeConflicts(serve, work, experiment, shard, "", "", "", metrics, false, listen, play, "")
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

	// The result store is the coordinator's store or a worker's cache, so
	// it needs one of the two service modes.
	cache := func(serve, work, listen, play, resultStore string, want string) {
		t.Helper()
		err := modeConflicts(serve, work, "", "", "", "", "", "", false, listen, play, resultStore)
		switch {
		case want == "" && err != nil:
			t.Errorf("unexpected conflict: %v", err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("modeConflicts(serve=%q, work=%q, listen=%q, play=%q, resultStore=%q) = %v, want mention of %s",
				serve, work, listen, play, resultStore, err, want)
		}
	}
	cache(":8080", "", "", "", "cache", "")
	cache("", "host:8080", "", "", "cache", "")
	// A plain experiment sweep reduces full runs the store does not hold,
	// and live transport has no simulated cells to cache.
	cache("", "", "", "", "cache", "-serve or -work")
	cache("", "", "127.0.0.1", "", "cache", "-result-store")
	cache("", "", "", "127.0.0.1", "cache", "-result-store")
}

// TestRemovedFlagUnknown runs the command in a child process and pins
// that a deleted flag is refused as unknown, with the flag package's usage
// exit status 2, rather than silently accepted.
func TestRemovedFlagUnknown(t *testing.T) {
	if args := os.Getenv("TURBULENCE_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"turbulence"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedFlagUnknown$")
	cmd.Env = append(os.Environ(), "TURBULENCE_MAIN_ARGS=-list -adaptive-leases")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("turbulence -adaptive-leases: err %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -adaptive-leases") {
		t.Fatalf("turbulence -adaptive-leases did not report an unknown flag:\n%s", out)
	}
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

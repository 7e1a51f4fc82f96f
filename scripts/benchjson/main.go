// Command benchjson works with the committed benchmark records.
//
// Render mode (default) re-renders a committed record
// (BENCH_baseline.json by default, or the file named as the first
// argument, e.g. BENCH_netem.json) as benchstat-compatible benchmark
// lines, so a committed record can feed straight into
// `benchstat <(scripts/bench.sh baseline) BENCH_current.txt`. The pkg
// line is the record's "pkg" field, turbulence when it has none, so
// benchstat pairs a record only with runs of the package it measured.
//
// Compare mode (`benchjson compare BENCH_current.txt [record.json...]`)
// parses a fresh `go test -bench` output and prints it side by side with
// every committed record that tracks the same benchmarks — the fallback
// `make bench-compare` uses when benchstat is not installed. With no
// records named it compares against every BENCH_*.json in the working
// directory.
//
// Gate mode (`benchjson compare -gate <pct> BENCH_current.txt [...]`)
// additionally exits non-zero when any benchmark's ns/op exceeds a
// committed record's by more than <pct> percent — the opt-in regression
// gate behind `make bench-compare GATE=<pct>`. Records are snapshots from
// specific hardware, so the gate is meaningful on runners that refresh
// their own records; that is why it is opt-in rather than the default.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type baseline struct {
	Goos   string `json:"goos"`
	Goarch string `json:"goarch"`
	// Pkg is the import path the benchmarks live in; empty means the
	// root package, turbulence.
	Pkg string `json:"pkg,omitempty"`
	CPU string `json:"cpu"`
	// GOMAXPROCS and core count of the run; zero in records that predate them.
	Gomaxprocs int              `json:"gomaxprocs,omitempty"`
	Cores      int              `json:"cores,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		args := os.Args[2:]
		gate := -1.0 // negative: report only, never fail
		if len(args) >= 2 && args[0] == "-gate" {
			v, err := strconv.ParseFloat(args[1], 64)
			if err != nil || v < 0 {
				fmt.Fprintln(os.Stderr, "benchjson: -gate wants a non-negative percentage")
				os.Exit(2)
			}
			gate = v
			args = args[2:]
		}
		if len(args) < 1 {
			fmt.Fprintln(os.Stderr, "usage: benchjson compare [-gate pct] BENCH_current.txt [record.json ...]")
			os.Exit(2)
		}
		compare(args[0], args[1:], gate)
		return
	}
	file := "BENCH_baseline.json"
	if len(os.Args) > 1 {
		file = os.Args[1]
	}
	b := load(file)
	if b.Pkg == "" {
		b.Pkg = "turbulence"
	}
	fmt.Printf("goos: %s\ngoarch: %s\npkg: %s\ncpu: %s\n", b.Goos, b.Goarch, b.Pkg, b.CPU)
	if b.Gomaxprocs > 0 {
		fmt.Printf("gomaxprocs: %d\ncores: %d\n", b.Gomaxprocs, b.Cores)
	}
	for _, name := range sortedNames(b.Benchmarks) {
		e := b.Benchmarks[name]
		fmt.Printf("%s \t1\t%.0f ns/op\t%d B/op\t%d allocs/op\n", name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
}

func load(file string) baseline {
	raw, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var b baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	return b
}

func sortedNames(m map[string]entry) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// parseBench extracts {name: entry} from `go test -bench -benchmem`
// output lines of the form
//
//	BenchmarkName-8   	5	  123456 ns/op	  7890 B/op	  12 allocs/op
//
// The trailing GOMAXPROCS suffix (-8) is stripped so names match the
// committed records, which are recorded suffixless; sub-benchmark slashes
// are kept.
func parseBench(file string) map[string]entry {
	f, err := os.Open(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	defer f.Close()
	out := make(map[string]entry)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		e := entry{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = int64(v)
			case "allocs/op":
				e.AllocsPerOp = int64(v)
			}
		}
		out[name] = e
	}
	return out
}

func compare(currentFile string, records []string, gate float64) {
	current := parseBench(currentFile)
	if len(records) == 0 {
		var err error
		records, err = filepath.Glob("BENCH_*.json")
		if err != nil || len(records) == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: no BENCH_*.json records found")
			os.Exit(1)
		}
		sort.Strings(records)
	}
	var regressions []string
	for _, rec := range records {
		b := load(rec)
		shared := make(map[string]entry)
		for name, e := range b.Benchmarks {
			if _, ok := current[name]; ok {
				shared[name] = e
			}
		}
		if len(shared) == 0 {
			continue
		}
		fmt.Printf("== vs %s ==\n", rec)
		fmt.Printf("%-34s %14s %9s %14s %9s %9s %9s\n",
			"benchmark", "old ns/op", "old B/op", "new ns/op", "new B/op", "Δns/op", "ΔB/op")
		for _, name := range sortedNames(shared) {
			old, cur := shared[name], current[name]
			dns := pct(cur.NsPerOp, old.NsPerOp)
			fmt.Printf("%-34s %12.0fns %7.1fMB %12.0fns %7.1fMB %+8.1f%% %+8.1f%%\n",
				name,
				old.NsPerOp, float64(old.BytesPerOp)/1e6,
				cur.NsPerOp, float64(cur.BytesPerOp)/1e6,
				dns, pct(float64(cur.BytesPerOp), float64(old.BytesPerOp)))
			if gate >= 0 && dns > gate {
				regressions = append(regressions,
					fmt.Sprintf("%s: ns/op %+.1f%% vs %s (gate %.0f%%)", name, dns, rec, gate))
			}
		}
		fmt.Println()
	}
	if gate < 0 {
		return
	}
	if len(regressions) > 0 {
		fmt.Fprintln(os.Stderr, "benchjson: ns/op regression gate failed:")
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
	fmt.Printf("gate: no tracked benchmark regressed ns/op by more than %.0f%%\n", gate)
}

func pct(cur, old float64) float64 {
	if old == 0 {
		return 0
	}
	return (cur - old) / old * 100
}

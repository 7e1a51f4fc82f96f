GO ?= go

.PHONY: all build test vet lint check loc bench bench-quick bench-compare cover clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Tier-1 hygiene: gofmt cleanliness plus go vet, staticcheck and
# shellcheck when they are installed (CI runners and dev trees that ship
# them get the stricter gate; trees without them just skip — nothing here
# downloads tooling). Fails listing any file gofmt would rewrite.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck scripts/*.sh; \
	else \
		echo "shellcheck not installed; skipping shell lint"; \
	fi
# internal/obs promises zero allocations on its hot paths; fmt verbs
# allocate, so any fmt call in the package (tests aside) is a regression.
	@hits=$$(grep -n 'fmt\.' internal/obs/*.go | grep -v '_test\.go:' || true); \
	if [ -n "$$hits" ]; then \
		echo "internal/obs must not use fmt (zero-alloc hot paths; use strconv):"; \
		echo "$$hits"; exit 1; \
	fi

# The full local gate: what CI would run. perfbench is its own module, so
# `go test ./...` never compiles it; vetting and testing it here catches a
# program change that breaks a name the benchmark uses.
check: build lint test
	cd perfbench && $(GO) vet ./... && $(GO) test .

# Non-test Go lines outside perfbench: the size figure CHANGES.md and
# ROADMAP.md track from change to change.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' -exec cat {} + | wc -l

# Full benchmark sweep in benchstat-compatible format. Writes the run to
# BENCH_current.txt (gitignored) so it can be diffed against the committed
# baseline in BENCH_baseline.json (or the netem record in BENCH_netem.json
# via `scripts/bench.sh netem`):
#
#	make bench
#	benchstat <(scripts/bench.sh baseline) BENCH_current.txt
bench:
	scripts/bench.sh | tee BENCH_current.txt

# The three hot-path benchmarks only, one iteration — a fast smoke signal.
bench-quick:
	$(GO) test -run=NONE -bench='BenchmarkPairRun$$|BenchmarkProfileFlow$$|BenchmarkFilterMatch$$' -benchmem -benchtime=2x .

# Compare the last `make bench` run (BENCH_current.txt) against the
# committed BENCH_*.json records: benchstat when it is installed, the
# built-in benchjson comparer otherwise — either way the loop from "run
# benchmarks" to "see the drift" closes without extra tooling.
#
# With GATE=<pct> set the comparison becomes a regression gate: benchjson
# exits non-zero when any tracked benchmark's ns/op exceeds the newest
# committed record's by more than <pct> percent (`make bench-compare
# GATE=10`). The gate reads only GATE_RECORD — the latest record
# supersedes the older snapshots, which keep regressions that were
# knowingly accepted in past PRs (e.g. the columnar capture store's
# FilterMatch cost) and would otherwise trip forever. Opt-in because the
# records are snapshots from specific hardware — gate on runners that
# refresh their own records.
GATE_RECORD ?= BENCH_heap.json
bench-compare:
	@test -f BENCH_current.txt || { echo "run 'make bench' first (writes BENCH_current.txt)"; exit 1; }
	@if [ -n "$(GATE)" ]; then \
		$(GO) run ./scripts/benchjson compare -gate $(GATE) BENCH_current.txt $(GATE_RECORD); \
	elif command -v benchstat >/dev/null 2>&1; then \
		sed -E 's/^(Benchmark[^[:space:]]+)-[0-9]+([[:space:]])/\1\2/' BENCH_current.txt > .bench_current.tmp; \
		for rec in baseline netem plan stream reuse heap; do \
			echo "== benchstat vs $$rec =="; \
			scripts/bench.sh $$rec > .bench_record.tmp 2>/dev/null || continue; \
			benchstat .bench_record.tmp .bench_current.tmp || true; \
		done; \
		rm -f .bench_record.tmp .bench_current.tmp; \
	else \
		$(GO) run ./scripts/benchjson compare BENCH_current.txt; \
	fi

# Coverage for the distributed-sweep plumbing (the wire format, the shard
# dispatcher, the result store and the frame log under the journal and the
# store — the layers whose bugs corrupt results silently). Writes cover.out (gitignored); CI uploads it as a per-run
# artifact and fails below the floor, so the cache/dispatch paths cannot
# quietly shed their tests.
COVER_FLOOR ?= 75
cover:
	$(GO) test -covermode=atomic -coverprofile=cover.out \
		-coverpkg=./internal/wire/...,./internal/dispatch/...,./internal/resultstore/...,./internal/framelog/... \
		./internal/wire/... ./internal/dispatch/... ./internal/resultstore/... ./internal/framelog/...
	@total=$$($(GO) tool cover -func=cover.out | tail -n 1 | awk '{ print $$3 }'); \
	echo "total: $$total (floor $(COVER_FLOOR)%)"; \
	pct=$${total%\%}; \
	if [ "$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { print (p < f) }')" = 1 ]; then \
		echo "coverage $$total is below the $(COVER_FLOOR)% floor"; exit 1; \
	fi

clean:
	rm -f BENCH_current.txt .bench_record.tmp .bench_current.tmp cover.out \
		go-test.json bench-smoke.txt
	rm -f ./*.test cmd/turbulence/turbulence
	$(GO) clean ./...

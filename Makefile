# Tier-1 verification stays `go build ./... && go test ./...` (make test).
# The race + vet pass the concurrency guarantees depend on is one command
# away: `make race` (or `make verify` for everything).

GO ?= go

.PHONY: build test vet race fmt-check verify benchmark fuzz loadtest loc

build:
	$(GO) build ./...

# TESTFLAGS threads extra `go test` flags through (CI passes
# -coverprofile here so the tier-1 run doubles as the coverage run).
TESTFLAGS ?=

test: build
	$(GO) test $(TESTFLAGS) ./...

# vet runs the stock toolchain vet plus xqvet, the project's own
# analyzer suite (guard discipline, posting-list doc sets, atomics,
# lock escapes, map-order determinism, exhaustive stats merging,
# cache-key completeness, lock-order acyclicity, knob-matrix coverage).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/xqvet ./...

race:
	$(GO) test -race ./...

# fmt-check fails (and lists the offenders) when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

verify: fmt-check test vet race

# benchmark: the repo's benchmark (BENCHMARK.json, bench/README.md) as a
# no-regression check — ten runs of every workload at this checkout,
# compared metric by metric against a committed result set of the seed.
# Exits non-zero when any (metric, workload) is worse beyond its bound.
BASE ?= bench/baseline/seed-a.json

benchmark: build
	$(GO) run ./bench -set bench/out/head.json -runs 10 && $(GO) run ./bench -compare $(BASE) bench/out/head.json

# End-to-end load test: boot xqserve under the race detector with a
# demo corpus and a deliberately tight admission budget, hammer it with
# cmd/serverload, then SIGTERM it to exercise the drain path. Leaves the
# latency/shed-rate report in loadtest.json (+ loadtest.out, and the
# server's own log in loadtest-server.log). Fails on transport errors
# (a request that never resolved — the one outcome admission control
# exists to prevent), on a race-detector report, or on a drain that
# never ran; latency and shed-rate numbers themselves are a trend, not
# a gate.
LOADC ?= 48
LOADN ?= 2000
LOADADDR ?= :18080

loadtest:
	$(GO) build -race -o bin/xqserve ./cmd/xqserve
	$(GO) build -o bin/serverload ./cmd/serverload
	@set -e; \
	./bin/xqserve -addr $(LOADADDR) -demo 400 -max-inflight 2 -max-queue 8 \
	  -max-wait 100ms -retry-after 250ms >loadtest-server.log 2>&1 & pid=$$!; \
	trap 'kill -TERM '"$$pid"' 2>/dev/null || true' EXIT; \
	./bin/serverload -addr http://localhost$(LOADADDR) -c $(LOADC) -n $(LOADN) \
	  -timeout-ms 500 -json loadtest.json >loadtest.out; \
	cat loadtest.out; \
	kill -TERM $$pid; wait $$pid; \
	grep -q 'drain:' loadtest-server.log

# Short fuzz burns over the parser entry points (the XML parser's depth
# limit and its reader/string differential included, and the XMLPATTERN
# parser's round trip), the path-step differential, the containment
# kernel against its map-based reference, path sets against the
# matcher they replace, the seed survivor filter
# against a linear Contains filter, the posting-list kernels against
# their reference bodies, the index/synopsis agreement check, bulk
# appends against per-row inserts and the SQL parser run on through
# EXPLAIN and guarded execution;
# failures become seed corpus regressions under testdata/fuzz/.
FUZZTIME ?= 15s

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseDoc -fuzztime=$(FUZZTIME) ./internal/xmlparse
	$(GO) test -run='^$$' -fuzz=FuzzParseDepthLimit -fuzztime=$(FUZZTIME) ./internal/xmlparse
	$(GO) test -run='^$$' -fuzz=FuzzParseReaderDifferential -fuzztime=$(FUZZTIME) ./internal/xmlparse
	$(GO) test -run='^$$' -fuzz=FuzzXQueryParse -fuzztime=$(FUZZTIME) ./internal/xquery
	$(GO) test -run='^$$' -fuzz=FuzzPathStepOrder -fuzztime=$(FUZZTIME) ./internal/xquery
	$(GO) test -run='^$$' -fuzz=FuzzPatternParse -fuzztime=$(FUZZTIME) ./internal/pattern
	$(GO) test -run='^$$' -fuzz=FuzzContainsAgainstReference -fuzztime=$(FUZZTIME) ./internal/pattern
	$(GO) test -run='^$$' -fuzz=FuzzPathSetAgainstMatch -fuzztime=$(FUZZTIME) ./internal/pattern
	$(GO) test -run='^$$' -fuzz=FuzzNextInDocsAgainstContains -fuzztime=$(FUZZTIME) ./internal/postings
	$(GO) test -run='^$$' -fuzz=FuzzKernelsAgainstReference -fuzztime=$(FUZZTIME) ./internal/postings
	$(GO) test -run='^$$' -fuzz=FuzzIndexSynopsisAgree -fuzztime=$(FUZZTIME) ./internal/xmlindex
	$(GO) test -run='^$$' -fuzz=FuzzBulkAppendMatchesInsert -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzSQLParse -fuzztime=$(FUZZTIME) .

# loc prints the line counts a change reports: non-test Go outside bench/
# and testdata/, then the test Go lines under the same exclusions.
LOCFIND = find . -name '*.go' -not -path './bench/*' -not -path '*/testdata/*'

loc:
	@echo "non-test Go lines: $$($(LOCFIND) -not -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "test Go lines:     $$($(LOCFIND) -name '*_test.go' -exec cat {} + | wc -l)"

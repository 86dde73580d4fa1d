GO ?= go

.PHONY: all vet lint build test test-fault test-poison race bench-smoke server-smoke crash-matrix fuzz-smoke benchmark-check bench-compare bench-tables ci

all: ci

# go vet, and gofmt: any tracked Go file outside testdata/ that gofmt
# would rewrite fails the target.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l $$(git ls-files '*.go' | grep -v '\(^\|/\)testdata/'))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt would rewrite:"; echo "$$unformatted"; exit 1; fi

# uniqlint enforces the repo's syntactic invariants (3VL comparisons,
# Stats atomics, catalog version bumps, deterministic map iteration,
# context threading in engine/plan, stale suppressions). Exits nonzero
# on any unsuppressed finding. The engine's iterator, governor and
# batch contracts are test-poison's, not lint's.
lint:
	$(GO) run ./cmd/uniqlint ./...

build:
	$(GO) build ./...

# Tier-1. Includes the executor's identity sweep (TestStreaming*,
# TestInPlaceScanFilterIdentity, TestExplainGolden: batch {1,3,default}
# against the row goldens, the EXPLAIN goldens and internal/oracle).
test:
	$(GO) test ./...

# Lifecycle fault matrix: the fault tag arms the deterministic
# injection registry (internal/fault) and exercises every engine
# point in every failure mode.
test-fault:
	$(GO) test -tags fault ./...

# Run-time contracts. The poison build tag makes Scratch.Reset never
# reuse a chunk — it fills every cell it handed out with a sentinel and
# every row header with a one-cell sentinel row, then abandons the
# chunk — so a row read after its execution's Reset changes a golden.
# It also runs every planned pipeline under engine.Checker: no Next
# after Close, every iterator closed, the execution's governor back to
# its result's charge, no batch written after handoff. A violation
# panics and fails the test. The fault matrix runs under it too: its
# error, budget and panic paths are where an iterator leaks and a
# charge stays on the books.
test-poison:
	$(GO) test -tags poison ./...
	$(GO) test -tags 'fault poison' ./internal/fault/...

# -race also compiles with checkptr instrumentation (-d=checkptr), so
# every unsafe.String the value package reads a string payload with is
# checked against the allocation it points into. ./... covers
# internal/value, internal/storage/... and internal/engine, the packages
# that build, store and copy cells.
race:
	$(GO) test -race ./...

# Bench smoke: every Go benchmark in the module runs once (-benchtime
# 1x), so one that fails at run time — a fixture that no longer builds,
# a b.Fatal on a changed API — fails here. The numbers are not
# measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Server smoke: the session-cap and admission tests fifty times over,
# so a slot-accounting race fails here rather than one tier-1 run in
# fifteen. The rest of the server suite runs in test and race.
server-smoke:
	$(GO) test ./internal/server -run 'SessionCap|Admission' -count=50

# Crash matrix: the storage suite under the race detector with the
# fault registry armed — WAL append/sync/checkpoint fault points, torn
# and corrupt tails, the kill -9 subprocess recovery test, and the
# daemon's -data lifecycle (recovering refusals, fsync-before-ack,
# demo-load suppression after recovery).
crash-matrix:
	$(GO) test -race -tags fault ./internal/storage/... ./cmd/uniqoptd

# Fuzz smoke: ten seconds each of the eight fuzz targets — the frame
# codec against encoding/json, the lexer's tokens and shapes against the
# byte-at-a-time lexer it replaced, the SQL parser on statements and on
# expressions, the statement cache against a database that has never
# seen the text, the three-word value cell against the four-field
# struct it replaced, the batch filter against the row loop, and the
# compiled clause, subquery leaves included, against eval.Truth — beyond
# the seed corpora tier-1 already runs. A fixed budget and no timing assertion;
# not part of ci (a finding is a new input to look at, not a flaky
# build).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFrameCodec$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzShape$$' -fuzztime 10s ./internal/sql/lexer/
	$(GO) test -run '^$$' -fuzz '^FuzzParseStatement$$' -fuzztime 10s ./internal/sql/parser/
	$(GO) test -run '^$$' -fuzz '^FuzzParseExpr$$' -fuzztime 10s ./internal/sql/parser/
	$(GO) test -run '^$$' -fuzz '^FuzzCompileTwice$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzValueModel$$' -fuzztime 10s ./internal/value/
	$(GO) test -run '^$$' -fuzz '^FuzzFilterBatch$$' -fuzztime 10s ./internal/eval/
	$(GO) test -run '^$$' -fuzz '^FuzzCompileAgreesWithTruth$$' -fuzztime 10s ./internal/eval/

# Repository benchmark check: benchmark/ is a module of its own, outside
# the root ./..., so nothing above builds it and an engine API change
# could break it unseen. Vet and unit-test it, then run each workload
# for two seconds; a run exits non-zero when any op disagrees with its
# oracle. The numbers these short runs print are not measurements.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	for w in wire_oltp embedded_adhoc embedded_analytic durable_ingest; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
	done

# Paired comparison of the working tree against a base commit on the
# repository benchmark: PAIRS alternating base/change runs per workload
# on seeds 1..PAIRS, printing per end-to-end metric the medians, the
# base's IQR and the pairs won — the table CHANGES.md lines quote. Fails
# only when a median is worse than the base's by more than its
# BENCHMARK.json bound (or more operations fail). Ten pairs of the four
# 10-second workloads take about 20 minutes; not part of ci.
#   make bench-compare BASE=HEAD~1 [PAIRS=10] [WORKLOADS=embedded_adhoc,wire_oltp]
PAIRS ?= 10
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<git ref> [PAIRS=10] [WORKLOADS=a,b]"; exit 2; }
	$(GO) run ./cmd/benchcompare -base $(BASE) -pairs $(PAIRS) -workloads "$(WORKLOADS)"

# Full experiment sweep, regenerating bench_output_tables.txt.
bench-tables:
	$(GO) run ./cmd/benchrunner -exp all -scale 0.25 > bench_output_tables.txt

ci: vet lint build test test-fault test-poison race bench-smoke server-smoke crash-matrix benchmark-check

GO ?= go

.PHONY: all build vet test race cover fuzz bench-smoke chaos ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -timeout 300s ./...

race:
	$(GO) test -race -timeout 600s ./...

# Enforce the coverage floors (packages, files and floors are listed at the
# end of ci.sh). Fuzz seed corpora run as part of the normal test pass (go
# test executes every f.Add seed).
cover:
	./ci.sh cover

# Short smoke run of every fuzzer in the tree beyond its seed corpus (go test
# takes one -fuzz target at a time, so they are found and run in turn).
fuzz:
	@set -e; grep -rHo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*' internal cmd examples | \
	while IFS=: read -r file fn; do \
		echo "== $${fn#func } ./$${file%/*}/"; \
		$(GO) test -run=NONE -fuzz="^$${fn#func }\$$" -fuzztime=10s "./$${file%/*}/"; \
	done

# Zero-copy hot-path smoke: one racing pass over the micro-benchmarks
# (correctness under -race), then the allocs/op ceilings in a pure build
# (they exclude race-instrumentation overhead) — the stage, pull, batcher
# and composite paths and a warm iso execute; see
# internal/bench/micro_test.go. Speed is not measured here:
# `bash benchmark/run.sh --workload <name>` does that, on a real deployment.
bench-smoke:
	$(GO) test -race -run NONE -bench 'BenchmarkStagePut|BenchmarkBulkPull|BenchmarkCompositePooled|BenchmarkIsoExecute' -benchtime=1x ./internal/bench/
	$(GO) test -count=1 -run 'AllocsCeiling' ./internal/bench/
	# Codec kernel before/after: word-wise shuffle/XOR next to their
	# byte-wise references (see internal/codec/kernels.go).
	$(GO) test -run NONE -bench 'Kernel' -benchtime=100x ./internal/codec/

# Focused run of the chaos/fault-injection suites, the leave and crash
# schedules of internal/core/leave_test.go included.
chaos:
	$(GO) test -race -timeout 600s -run 'TestChaos|TestDeactivateDrains|TestStageRejected|TestDuplicatePrepare|TestDeferredLeave|TestStageRetries|TestStatefulMigrationOnLeave|TestTwoServersLeave|TestLeaveOfOnlyHolder|TestMigrateRetries|TestFailedMigration' ./internal/core/ ./internal/e2e/

ci:
	./ci.sh

GO ?= go

.PHONY: build test check linkcheck flagcheck benchguard trace-demo rangetop-demo bench bench-all

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: formatting, static analysis (the
# perfbench benchmark module too: it is its own Go module, so the root's
# vet does not see it, and a root API change that breaks it must fail
# here, not on the next benchmark run), the perfbench self-test (it folds
# the span names of traced lookups and drives live peers, so a runtime
# change to the traced tree, which vet cannot see, fails here too), doc
# links, doc flag tables, the allocation guards, the wire-codec and
# WAL-record fuzz seed corpora, a quick race pass over the replica
# subsystem and the crash-recovery suite (the most concurrent code in
# the repo), then the full suite under the race detector.
check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	cd perfbench && $(GO) test ./...
	$(MAKE) linkcheck
	$(MAKE) flagcheck
	$(MAKE) benchguard
	$(GO) test -run 'Fuzz' ./internal/transport ./internal/peer ./internal/replica ./internal/djoin ./internal/wal ./internal/ship ./internal/obs
	$(GO) test -race -run 'TestReplica|TestRecover' ./internal/replica ./internal/sim ./internal/store ./internal/wal
	$(GO) test -race -run 'TestShip|TestPusher' ./internal/ship
	$(GO) test -race ./...

# linkcheck verifies every relative link in the repo's markdown files.
linkcheck:
	$(GO) run ./tools/checklinks

# flagcheck verifies the docs' command flag tables against the flags
# cmd/* actually declare.
flagcheck:
	$(GO) run ./tools/checkflags

# benchguard pins the hot-path allocation contracts under -benchmem: a
# nil span threaded through a hot path, a probe-request (one-probe
# FindBestBatchReq, decoded into a reused destination) binary
# encode+decode round trip, a load-probe (LoadReq then LoadResp) binary
# encode+decode round trip, a segment point read (bloom check +
# sparse-index probe + record walk, hit and miss), and the log-shipping
# entry-apply path (CRC walk + decode + idempotent store re-apply) must
# all stay at 0 allocs/op.
benchguard:
	@out=$$($(GO) test -run '^$$' -bench BenchmarkDisabledSpan -benchmem ./internal/trace); \
	if ! echo "$$out" | grep -q '0 allocs/op'; then \
		echo "nil-span fast path allocates:"; echo "$$out"; exit 1; \
	fi; \
	echo "benchguard: disabled span holds 0 allocs/op"
	@out=$$($(GO) test -run '^$$' -bench BenchmarkCodecProbe -benchmem ./internal/peer); \
	if ! echo "$$out" | grep -q '0 allocs/op'; then \
		echo "probe codec round trip allocates:"; echo "$$out"; exit 1; \
	fi; \
	echo "benchguard: probe codec round trip holds 0 allocs/op"
	@out=$$($(GO) test -run '^$$' -bench BenchmarkCodecLoad -benchmem ./internal/replica); \
	if ! echo "$$out" | grep -q '0 allocs/op'; then \
		echo "load-probe codec round trip allocates:"; echo "$$out"; exit 1; \
	fi; \
	echo "benchguard: load-probe codec round trip holds 0 allocs/op"
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkSegmentProbe' -benchmem ./internal/wal); \
	if [ $$(echo "$$out" | grep -c '0 allocs/op') -lt 2 ]; then \
		echo "segment probe hot path allocates:"; echo "$$out"; exit 1; \
	fi; \
	echo "benchguard: segment probe (hit and miss) holds 0 allocs/op"
	@out=$$($(GO) test -run '^$$' -bench BenchmarkShipApply -benchmem ./internal/ship); \
	if ! echo "$$out" | grep -q '0 allocs/op'; then \
		echo "ship entry-apply hot path allocates:"; echo "$$out"; exit 1; \
	fi; \
	echo "benchguard: ship entry apply holds 0 allocs/op"
	@out=$$($(GO) test -run '^$$' -bench BenchmarkFlightOff -benchmem ./internal/flight); \
	if ! echo "$$out" | grep -q '0 allocs/op'; then \
		echo "disabled flight recorder allocates:"; echo "$$out"; exit 1; \
	fi; \
	echo "benchguard: disabled flight recorder holds 0 allocs/op"
	@out=$$($(GO) test -run '^$$' -bench BenchmarkFlightRecord -benchmem ./internal/flight); \
	allocs=$$(echo "$$out" | grep 'BenchmarkFlightRecord' | awk '{for (i=1;i<NF;i++) if ($$(i+1)=="allocs/op") print $$i}'); \
	if [ -z "$$allocs" ] || [ "$$allocs" -gt 16 ]; then \
		echo "flight recording exceeds the amortized allocation bound (16 allocs/op):"; echo "$$out"; exit 1; \
	fi; \
	echo "benchguard: flight recording amortized at $$allocs allocs/op (bound 16)"

# trace-demo prints a hop-by-hop span tree for one query on a simulated
# 8-peer ring — the quickest way to see the observability layer.
trace-demo:
	$(GO) run ./cmd/rangeql -peers 8 -trace \
		-e "SELECT name FROM Patient WHERE 30 <= age AND age <= 50"

# rangetop-demo boots a real 3-peer TCP ring with debug endpoints, runs
# one traced query through an ephemeral rangeql member (watch the serve
# spans arrive from remote peers), and prints the rangetop cluster view.
rangetop-demo:
	@sh ./tools/rangetop-demo.sh

# flight-demo boots a 3-peer TCP ring (one peer with injected RPC
# latency), drives a mixed lookup workload with NO tracing flags, and
# dumps /debug/slow — the flight recorder caught the slow queries after
# the fact, stitched trees included.
flight-demo:
	@sh ./tools/flight-demo.sh

# bench runs the signature-pipeline benchmarks (the performance contract:
# BenchmarkMinWiseSign vs BenchmarkMinWiseNaive and friends) with
# allocation stats, recording machine-readable output for comparison
# across commits.
bench:
	$(GO) test -json -run '^$$' -bench . -benchmem ./internal/minhash \
		> BENCH_minhash.json
	$(GO) test -json -run '^$$' -bench BenchmarkReplica -benchmem ./internal/replica \
		> BENCH_replica.json
	@$(GO) run ./cmd/rangebench -fig sig -quick
	@$(GO) run ./cmd/rangebench -fig load -quick
	$(GO) test -run '^$$' -bench 'BenchmarkSegment' -benchmem ./internal/wal \
		| $(GO) run ./tools/benchmerge -key segment_reads \
		-note "disk read path: Get via sparse index vs full segment scan; Probe is the bloom+index point read"

# bench-all runs every benchmark in the repo once, as a smoke test.
bench-all:
	$(GO) test -bench=. -benchtime=1x ./...

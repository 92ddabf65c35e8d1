GO ?= go

.PHONY: build test check figures linkcheck flagcheck metriccheck benchguard trace-demo rangetop-demo flight-demo bench-all

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
# links, doc flag tables, doc metric tables, the allocation guards, the
# wire-codec and WAL-record fuzz seed corpora, a quick race pass over the replica
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
	$(MAKE) metriccheck
	$(MAKE) benchguard
	$(GO) test -run 'Fuzz' ./internal/transport ./internal/peer ./internal/replica ./internal/wal ./internal/ship ./internal/obs
	$(GO) test -race -run 'TestReplica|TestRecover' ./internal/replica ./internal/sim ./internal/store ./internal/wal
	$(GO) test -race -run 'TestShip|TestPusher' ./internal/ship
	$(GO) test -race ./...

# figures is the paper-scale figure gate: `rangebench -fig all` must
# match results_full.txt in every cell that does not measure wall time
# (the masked diff of cmd/rangebench/main_test.go). It takes minutes, so
# check runs only its quick-scale twin, TestQuickFigures.
figures:
	$(GO) test -tags figures -run '^TestFullFigures$$' -timeout 60m -v ./cmd/rangebench

# linkcheck verifies every relative link in the repo's markdown files.
linkcheck:
	$(GO) run ./tools/checklinks

# flagcheck verifies the docs' command flag tables against the flags
# cmd/* actually declare.
flagcheck:
	$(GO) run ./tools/checkflags

# metriccheck verifies the docs' metric tables against the metrics the
# code registers, and that every metric the code reads by name is
# registered.
metriccheck:
	$(GO) run ./tools/checkmetrics

# benchguard pins the hot-path allocation contracts under -benchmem: a
# nil span threaded through a hot path, a probe-request (one-probe
# FindBestBatchReq, decoded into a reused destination) binary
# encode+decode round trip, a load-probe (LoadReq then LoadResp) binary
# encode+decode round trip, a segment point read (bloom check +
# sparse-index probe + record walk, hit and miss) and the disabled
# flight recorder must all stay at 0 allocs/op. The push receiver
# re-applying a 64-record batch (Service.Handle(ApplyReq): CRC walk,
# decode, first-wins store re-apply) allocates the walk's cursor, the
# first copy of the batch's multi-byte names and the boxed response:
# 5 allocs/op measured, pinned at 6 (a 20% margin). Recording
# one query into the flight recorder (a root with one child and one
# event, finished into the rings) takes 4 allocs/op, pinned at 5 (it took
# 6 when events were formatted and stored one object each). A
# recorder-on serve round trip (a Remote span with one batch and three
# best events, encoded once, parsed from a response frame and grafted as
# bytes) takes 9, pinned at 11: the tree, the fragment, its copy out of
# the frame and six boxed event arguments (35 when fragments were
# rebuilt span by span). The
# local SQL join (a Patient age range joined with all 1,500 Diagnosis
# tuples) formats no key, builds no per-row map and reuses the join index
# Diagnosis keeps: 15 allocs/op measured, pinned at 18 (a 20% margin; the
# executor that rebuilt the index per join took 40, the fmt-keyed one
# 8,765). Decoding a 100-tuple FetchDataResp (Patient tuples) allocates
# the tuple list, one value slab and one string its names are cut from:
# 3 allocs/op measured, pinned at 4 (a string per name took 102,
# per-tuple decoding 201).
#
# One row per guard, package:benchmark:lines:max:name — at least `lines`
# result lines of the benchmark must report at most `max` allocs/op
# (underscores in the name print as spaces).
BENCHGUARDS = \
	./internal/trace:BenchmarkDisabledSpan:1:0:disabled_span \
	./internal/peer:BenchmarkCodecProbe:1:0:probe_codec_round_trip \
	./internal/replica:BenchmarkCodecLoad:1:0:load-probe_codec_round_trip \
	./internal/wal:BenchmarkSegmentProbe:2:0:segment_probe_hit_and_miss \
	./internal/ship:BenchmarkPushApply:1:6:push_receiver_apply \
	./internal/flight:BenchmarkFlightOff:1:0:disabled_flight_recorder \
	./internal/flight:BenchmarkFlightRecord:1:5:flight_recording_amortized \
	./internal/transport:BenchmarkServeFragment:1:11:recorder-on_serve_round_trip \
	./internal/query:BenchmarkExecuteJoin:1:18:sql_hash_join \
	./internal/peer:BenchmarkFetchDataDecode:1:4:fetch-data_decode_100_tuples \
	./internal/chord:BenchmarkLookupOwnList:1:0:lookup_resolved_from_own_successor_list

benchguard:
	@for row in $(BENCHGUARDS); do \
		set -- $$(echo "$$row" | tr ':' ' '); \
		what=$$(echo "$$5" | tr '_' ' '); \
		out=$$($(GO) test -run '^$$' -bench "$$2" -benchmem "$$1") || { echo "$$out"; exit 1; }; \
		ok=$$(echo "$$out" | awk -v max="$$4" '{for (i=1;i<NF;i++) if ($$(i+1)=="allocs/op" && $$i+0<=max+0) n++} END {print n+0}'); \
		if [ "$$ok" -lt "$$3" ]; then \
			echo "benchguard: $$what exceeds $$4 allocs/op:"; echo "$$out"; exit 1; \
		fi; \
		echo "benchguard: $$what holds at most $$4 allocs/op"; \
	done

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

# bench-all runs every benchmark in the repo once, as a smoke test.
bench-all:
	$(GO) test -bench=. -benchtime=1x ./...

GO ?= go

.PHONY: build test short race fmt vet staticcheck nvlint lint apicheck benchmark-smoke crash-smoke repl-smoke fault-smoke bench-smoke bench-ci soak size ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Short test pass with tiny benchmark durations: what CI runs. It includes
# TestPaperClaims (internal/bench), which pins the exact flush and fence
# counts of the seeded claims runs and checks the paper's findings on them.
short:
	NVBENCH_DUR=10ms $(GO) test -short ./...

# Race pass over the concurrent packages, kept short. pmem is in the list
# for the striped-model stress tests and the file backend's bracketed
# writes; epoch for the registration high-water mark; hashtable, arena and
# persist because they sit on that write path and drive it through a real
# structure; every structure package (ellenbst and nmbst are the slow ones,
# about a minute each on 2 vCPUs); wire for the frame codec both the server
# and repl share; the root package for the facade and its replica option;
# bench for the YCSB runner, whose workers drive store sessions in parallel,
# and for the claims runs, which must count the same under the detector.
race:
	NVBENCH_DUR=10ms $(GO) test -race -short . ./internal/pmem ./internal/epoch ./internal/core ./internal/store ./internal/list ./internal/skiplist ./internal/ellenbst ./internal/nmbst ./internal/onefile ./internal/queue ./internal/stack ./internal/crashtest ./internal/batcher ./internal/server ./internal/repl ./internal/wire ./internal/hashtable ./internal/arena ./internal/persist ./internal/bench

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. The container image does not ship
# staticcheck, so the target degrades to a notice locally; the CI job
# installs the pinned version and fails properly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Protocol linter: the four nvcheck rules (traversepure, fencereturn,
# writehook, linelayout) enforce the NVTraverse persistence discipline over
# every package. Self-contained (stdlib only), so it runs anywhere the go
# toolchain does. Violations are suppressed inline only with a justified
# `//nvcheck:ignore <rule> -- <reason>` directive.
nvlint:
	$(GO) run ./cmd/nvlint ./...

# Umbrella for every static check.
lint: fmt vet staticcheck nvlint

# API-compatibility gate: apicompat_test.go pins the facade's symbols and
# signatures at compile time (the queue, the v2 store surface and the v3
# replication and client surface) — a missing or re-signed symbol fails the
# compile, an apidiff in spirit with no external tooling.
apicheck:
	$(GO) test -run TestFacadeSymbols .

# The repository benchmark is a module of its own (benchmark/go.mod,
# replaced onto this checkout), so `go build ./...` and `go test ./...` at
# the root never compile it. This target does (~10 s): vet, then its tests,
# which build nvserver from the checkout and run every workload briefly
# under the oracle — a PR that renames an internal symbol the benchmark
# compiles against fails here rather than at the benchmark gate.
benchmark-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# SIGKILL-restart recovery smoke (TestCrashSmokeSIGKILL): spawn a
# file-backed nvserver child, kill -9 it mid-load, restart it on the same
# data directory, and fail unless the durable-linearizability checker
# passes with every acknowledged write present. A second round SIGTERMs the
# restarted server (checkpoint path) and re-verifies. One round sets a
# checkpoint threshold and enough traffic that the child must checkpoint on
# its own before the kill: it fails unless the restart loaded
# automatic-checkpoint bytes AND replayed only a threshold-bounded WAL
# tail. Each round's data dir is an nvsmoke* directory under $TMPDIR, kept
# and printed on failure (CI uploads it).
crash-smoke:
	$(GO) test -count=1 -run 'TestCrashSmokeSIGKILL' ./cmd/nvserver/

# Replication failover smoke (TestReplSmokeFailover): a durable primary
# with -wait 2 and two -replica-of children on Unix sockets, pipelined WAIT
# load, SIGKILL the primary mid-stream, PROMOTE one replica over the wire,
# and fail unless the durable-linearizability checker finds every
# quorum-acknowledged write on the promoted replica (the second replica
# must keep serving stale reads and refusing writes). The primary's data
# dir is an nvrepl-data* directory under $TMPDIR, kept and printed on
# failure.
repl-smoke:
	$(GO) test -count=1 -run 'TestReplSmokeFailover' ./cmd/nvserver/

# The deterministic disk-fault matrix: every errfs schedule the fault
# tests script — fsync EIO, ENOSPC, short writes, checkpoint faults at
# each pre-commit-point step, mid-log corruption — plus the degraded-mode
# serving paths (batcher refusals, wire-level ERR DEGRADED, STATS) and the
# fault-schedule crash tortures. Seeded schedules, no timing dependence.
# Then the WAL replay fuzzer for a time-boxed 20 s: arbitrary bytes as the
# live log must never panic replay, never get a bad-checksum frame applied,
# and be classified torn tail vs mid-log corruption as documented; then the
# WAL record decoder for 10 s: arbitrary bytes as one record's payload must
# never panic it, must decode exactly when the independent reading of the
# layout does, and every payload it accepts must re-encode byte for byte.
# Then the checkpoint loader for 10 s (arbitrary bytes as the live
# checkpoint are loaded exactly when the independent reading accepts them,
# and then as it reads them) and the CURRENT parser for 5 s (it accepts
# exactly what writeCurrent renders), then the store's MANIFEST.json reader
# for 5 s (it accepts exactly what formatManifest renders, and a store opens
# only on its own manifest).
# Then the replication stream fuzzer for 10 s: arbitrary bytes as a primary's
# stream must never panic a replica, never get a malformed frame applied or
# acknowledged, and always end the stream with an error. Then the two
# parsers on the replication link for 5 s each: the PSYNC attach payload
# (accepted exactly when its length matches its count, re-encoded byte for
# byte) and the replica's watermark file (accepted exactly as it is
# written; any other file leaves the replica's positions alone). Last, the
# two request decoders for 10 s each: arbitrary bytes as a text or binary
# client stream must never panic the server's codec, must end in a framing
# error exactly where framing is lost, and every request decoded must
# survive a client re-encode unchanged.
fault-smoke:
	$(GO) test -count=1 -run 'TestFault' ./internal/pmem/ ./internal/crashtest/
	$(GO) test -count=1 ./internal/pmem/vfs/
	$(GO) test -count=1 -run 'DegradedOnFsync' ./internal/batcher/
	$(GO) test -count=1 -run 'TestServerDegraded|TestServerIdleTimeout|TestClientTimeout' ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzReplayWAL -fuzztime 20s -fuzzminimizetime 2s ./internal/pmem/
	$(GO) test -run '^$$' -fuzz FuzzWALRecord -fuzztime 10s -fuzzminimizetime 2s ./internal/pmem/
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 10s -fuzzminimizetime 2s ./internal/pmem/
	$(GO) test -run '^$$' -fuzz FuzzReadCurrent -fuzztime 5s -fuzzminimizetime 2s ./internal/pmem/
	$(GO) test -run '^$$' -fuzz FuzzManifest -fuzztime 5s -fuzzminimizetime 2s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzReplicaStream -fuzztime 10s -fuzzminimizetime 2s ./internal/repl/
	$(GO) test -run '^$$' -fuzz FuzzPSync -fuzztime 5s -fuzzminimizetime 2s ./internal/repl/
	$(GO) test -run '^$$' -fuzz FuzzWatermark -fuzztime 5s -fuzzminimizetime 2s ./internal/repl/
	$(GO) test -run '^$$' -fuzz FuzzTextRequest -fuzztime 10s -fuzzminimizetime 2s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzBinaryRequest -fuzztime 10s -fuzzminimizetime 2s ./internal/server/

# Exercise both CLIs end to end with tiny workloads so they cannot rot.
# nvbench -flushstats prints the claims table and fails on a failed claim;
# nvcrash runs every kind of crash-round target (single structures, both
# queues, the stack, the sharded engine).
bench-smoke:
	$(GO) run ./cmd/nvbench -list
	NVBENCH_DUR=5ms $(GO) run ./cmd/nvbench -panel sA -threads 2 -scale 256
	NVBENCH_DUR=5ms $(GO) run ./cmd/nvbench -ycsb A -shards 4 -threads 2 -range 512 -profile zero
	NVBENCH_DUR=5ms $(GO) run ./cmd/nvbench -ycsb E -kind skiplist -threads 2 -range 2048 -profile zero
	NVBENCH_DUR=5ms $(GO) run ./cmd/nvbench -ycsb U -kind list -shards 2 -threads 2 -range 512 -profile zero
	$(GO) run ./cmd/nvbench -flushstats
	$(GO) run ./cmd/nvcrash -rounds 2 -ops 150 -workers 2 -keys 64
	$(GO) run ./cmd/nvcrash -kind ellenbst -rounds 2 -ops 150 -workers 2 -keys 64
	$(GO) run ./cmd/nvcrash -kind queue -rounds 2 -ops 150 -workers 2
	$(GO) run ./cmd/nvcrash -kind dqueue -rounds 2 -ops 150 -workers 2
	$(GO) run ./cmd/nvcrash -kind stack -rounds 2 -ops 150 -workers 2
	$(GO) run ./cmd/nvcrash -shards 4 -batch 4 -rounds 2 -ops 200 -workers 2 -kind hash

# Soak, kept out of ci (about 25 minutes on 2 vCPUs at the defaults): build
# the test binaries once, then run every structure's TestConcurrentStress,
# the crashtest package, the store tortures, the server package and the
# two-replica full resync SOAK_RUNS times each, and TestLonePutRoundTrips
# under -race SOAK_RACE_RUNS times, beside two busy loops the script starts
# and stops itself; it prints runs and failures per test and fails on any
# failure.
SOAK_RUNS ?= 200
SOAK_RACE_RUNS ?= 1000
soak:
	GO=$(GO) bash scripts/soak.sh $(SOAK_RUNS) $(SOAK_RACE_RUNS)

# Footprint, kept out of ci (a report, not a check): non-test Go lines
# outside benchmark/ and the exported symbols per package — top-level
# declarations and exported struct fields, as `go doc -all` lists them.
size:
	GO=$(GO) bash scripts/size.sh

# Run the Go benchmarks once (panels + flush accounting smoke, and pmem's
# Store + Flush + Fence on a plain and on a file-backed line), then the
# YCSB-E panel once end to end: every ordered kind x durable policy,
# 1-shard + 4-shard store, real rows or a hard failure.
bench-ci:
	NVBENCH_DUR=5ms $(GO) test -run=NONE -bench=. -benchtime=1x ./internal/bench/...
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/pmem/
	NVBENCH_DUR=5ms $(GO) run ./cmd/nvbench -panel yE -threads 2 -scale 256

ci: fmt vet build nvlint short race apicheck bench-smoke benchmark-smoke crash-smoke repl-smoke fault-smoke bench-ci

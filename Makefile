# Tier-1: the seed contract — every tracked Go file is gofmt-clean (the
# tracked-file list keeps build caches out of the scan), everything builds,
# vets clean, all tests pass.
tier1:
	@drift=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$drift" ]; then echo "gofmt -l lists:"; echo "$$drift"; exit 1; fi
	go build ./...
	go vet ./...
	go test ./...

# Tier-2: static checks + the full suite under the race detector; the
# serial-vs-parallel equivalence tests make this the parallel engine's
# correctness gate.
tier2:
	go vet ./...
	go test -race ./...

# Tier-3: observability gate — vet, the obs/export/par race suites (the
# export suite includes the live SSE integration and the concurrent-scrape
# race test), and two artefact smoke checks on a real mfsynth run: the
# Chrome trace must carry all four pipeline phases and per-worker tracks,
# and the live-progress JSONL log must satisfy the stream invariants
# (tracecheck validates both). The run lists anneal among its producers
# because the anneal replicate pool is what draws the per-worker tracks.
tier3:
	go vet ./...
	go test -race ./internal/obs/... ./internal/par/
	go run ./cmd/mfsynth -case PCR -workers 2 -backends ilp,greedy,anneal -trace .tier3-trace.json -progress-log .tier3-progress.jsonl >/dev/null
	go run ./tools/tracecheck -require-workers .tier3-trace.json
	go run ./tools/tracecheck -progress .tier3-progress.jsonl
	rm -f .tier3-trace.json .tier3-progress.jsonl

# Tiers 4-8 run smoke runs and artefact gates only: tier 2 already runs
# every package's tests under the race detector.

# Tier-4: conformance gate — a conformance-checked synthesis run and a
# short smoke of every native fuzzer. Override FUZZTIME to fuzz longer
# (e.g. make tier4 FUZZTIME=5m).
FUZZTIME ?= 10s
tier4:
	go run ./cmd/mfsynth -case PCR -mode greedy -verify >/dev/null
	go test -run '^$$' -fuzz FuzzParseAssay -fuzztime $(FUZZTIME) ./internal/assays/
	go test -run '^$$' -fuzz FuzzRouteOracle -fuzztime $(FUZZTIME) ./internal/route/
	go test -run '^$$' -fuzz FuzzPipeline -fuzztime $(FUZZTIME) ./internal/verify/
	go test -run '^$$' -fuzz FuzzTelemetry -fuzztime $(FUZZTIME) ./internal/fleet/
	go test -run '^$$' -fuzz FuzzJobRequest -fuzztime $(FUZZTIME) ./internal/serve/
	go test -run '^$$' -fuzz FuzzFaultSpec -fuzztime $(FUZZTIME) ./internal/fault/

# Tier-5: fault-injection gate — a verified single-run injection smoke
# and a seeded campaign over all four benchmarks (each run
# conformance-audited, success rate gated). Override CAMPAIGN_RUNS /
# FAULT_RATE for a longer sweep.
CAMPAIGN_RUNS ?= 6
FAULT_RATE ?= 0.05
tier5:
	go run ./cmd/mfsynth -case PCR -mode greedy -fault-seed 7 -fault-rate $(FAULT_RATE) -verify >/dev/null
	go run ./cmd/mfbench -campaign $(CAMPAIGN_RUNS) -fault-rate $(FAULT_RATE) -fast -verify -min-success 0.5

# Tier-6: service gate — the in-process load test at LOAD_JOBS concurrent
# submissions (duplicate ratio 50%) and the daemon's build-and-SIGTERM
# drain test, then a build of the daemon and the load generator.
LOAD_JOBS ?= 200
tier6:
	MFSERVE_LOAD_JOBS=$(LOAD_JOBS) go test -run 'TestLoad|TestGracefulDrain' ./internal/serve/ ./cmd/mfserved/
	go build ./cmd/mfserved ./tools/loadgen

# Tier-7: backend gate — a smoke ablation over the generated corpus whose
# artefact must pass the anneal-vs-ILP quality gate (anneal within 10% of
# the ILP's peak pressure wherever the ILP completes). Override
# ABLATION_DEADLINE for a longer per-cell budget.
ABLATION_DEADLINE ?= 30s
tier7:
	go run ./cmd/mfbench -ablation -ablation-deadline $(ABLATION_DEADLINE) -ablation-out .tier7-ablation.json
	go run ./tools/benchgate -ablation .tier7-ablation.json
	rm -f .tier7-ablation.json

# Tier-8: fleet gate — a smoke campaign at the committed defaults whose
# artefact must pass internal validity (closed strictly outlives static,
# non-vacuous death, re-syntheses happened) and reproduce the committed
# BENCH_fleet.json fingerprint bit-identically.
tier8:
	go run ./cmd/mfbench -fleet -fleet-out .tier8-fleet.json
	go run ./tools/benchgate -fleet .tier8-fleet.json -fleet-baseline BENCH_fleet.json
	rm -f .tier8-fleet.json

# The benchmark (perfbench/) is its own module, so tiers 1-2 never compile
# it: vet it and run its smoke test, which drives every workload at
# minimum size.
perfbench:
	cd perfbench && go vet . && go test .

# Serial-vs-parallel benchmark of the Table 1 cell fan-out (ns/op and
# allocs/op per worker count).
bench-parallel:
	go test -run '^$$' -bench=Parallel -benchmem .

# Machine-readable Table 1 artefact.
bench-json:
	go run ./cmd/mfbench -table1 -json BENCH_table1.json

# Hot-path micro-benchmarks (LP node solves, branch and bound, router,
# greedy and anneal placement), refreshing the committed BENCH_micro.txt
# snapshot.
bench:
	go test -run '^$$' -bench=. -benchmem -count=5 ./internal/lp/ ./internal/milp/ ./internal/route/ ./internal/place/ | tee BENCH_micro.txt

# Perf gate: re-run Table 1 with the debug server live and compare against
# the committed snapshots — synthesis results must match exactly (proving
# live observability never changes results), the gated work counters
# (simplex pivots, Dijkstra pops) and per-benchmark allocation counts may
# not regress by more than 10%, and the obs-on/obs-off overhead benchmark
# may not exceed 2%. While Table 1 runs, /metrics is scraped until the live
# B&B gap gauge appears, and the progress log is validated afterwards.
LIVE_ADDR ?= 127.0.0.1:18080
bench-gate:
	go build -o .bench-mfbench ./cmd/mfbench
	./.bench-mfbench -table1 -json .bench-fresh.json -http $(LIVE_ADDR) -progress-log .bench-progress.jsonl >/dev/null & \
	pid=$$!; live=0; \
	while kill -0 $$pid 2>/dev/null; do \
		if curl -sf http://$(LIVE_ADDR)/metrics | grep -q '^milp_gap '; then live=1; break; fi; \
		sleep 1; \
	done; \
	wait $$pid || exit 1; \
	[ $$live -eq 1 ] || { echo "bench-gate: /metrics never showed milp_gap mid-run"; exit 1; }
	go run ./tools/tracecheck -progress .bench-progress.jsonl
	go test -run '^$$' -bench=. -benchmem -count=1 ./internal/lp/ ./internal/milp/ ./internal/route/ ./internal/place/ > .bench-fresh-micro.txt
	go test -run '^$$' -bench ObsOverhead -benchtime 3x -count 3 ./internal/obs/export/ > .bench-overhead.txt
	go run ./tools/benchgate -old BENCH_table1.json -new .bench-fresh.json \
		-micro-old BENCH_micro.txt -micro-new .bench-fresh-micro.txt \
		-overhead .bench-overhead.txt
	rm -f .bench-mfbench .bench-fresh.json .bench-fresh-micro.txt .bench-overhead.txt .bench-progress.jsonl

.PHONY: tier1 tier2 tier3 tier4 tier5 tier6 tier7 tier8 perfbench bench-parallel bench-json bench bench-gate

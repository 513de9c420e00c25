GO ?= go

.PHONY: tier1 build test vet race bench bench-compare chaos fuzz sketch-conformance clean

# tier1 is the gate every change must pass: vet, build, and the full test
# suite under the race detector.
tier1: vet build race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the standing benchmark (bench/README.md): every workload
# against a real asdbd, untraced for the end-to-end metrics and traced for
# the per-layer budget; tables on stdout, bench/out/result.json on disk.
bench:
	bash bench/run.sh -trace 1

# bench-compare judges result file B against A per workload and metric
# (exit 1 on any "worse"): make bench-compare A=before.json B=after.json
bench-compare:
	bash bench/run.sh -compare $(A) $(B)

# sketch-conformance runs the statistical conformance suites for the sketch
# backend under the race detector: interval-coverage calibration, merge
# property tests, quantile edge cases, and the end-to-end backend tests.
sketch-conformance:
	$(GO) test -race -count 1 ./internal/sketch/
	$(GO) test -race -count 1 -run 'TestSketch|TestQuantile' ./internal/accuracy/
	$(GO) test -race -count 1 -run 'Sketch' ./internal/core/ ./internal/checkpoint/ ./internal/cluster/
	$(GO) test -race -count 1 -run 'TestSketchCrash|TestGoldenSketch|TestParseBackend' ./internal/server/ ./internal/sql/

# chaos replays the seeded deterministic fault schedules (injected fsync
# failures, ENOSPC, torn writes, torn connections, panics) against the full
# server under the race detector.
chaos:
	$(GO) test -race -count 1 -run 'TestChaos|TestMaxConns|TestIdleTimeout|TestConnPanic|TestSlowClient|TestAcceptTransient|TestTornRequest|TestShed|TestSplitReqID|TestDedupWindow|TestClientBackoff' \
		./internal/server/
	$(GO) test -race -count 1 ./internal/fault/
	$(GO) test -race -count 1 -run 'TestFsyncFailureWedges|TestTornWriteRecovers|TestBatchFsyncFailureNoPartialAck' ./internal/wal/
	$(GO) test -race -count 1 -run 'TestSaveFsyncFailureKeepsPrevious|TestSaveENOSPCTornTemp|TestDegradeRoundTrip' ./internal/checkpoint/
	$(GO) test -race -count 1 ./internal/cluster/

# fuzz smoke-runs every native fuzz target (go test -fuzz accepts a single
# target per invocation, so the targets loop). FUZZTIME bounds each target.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/sql/
	$(GO) test -run '^$$' -fuzz '^FuzzParseFieldSpec$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzParseStreamDef$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzProtocolDispatch$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzReadLine$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzDeliveries$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzSketchRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/sketch/
	$(GO) test -run '^$$' -fuzz '^FuzzSketchMerge$$' -fuzztime $(FUZZTIME) ./internal/sketch/
	$(GO) test -run '^$$' -fuzz '^FuzzSampleSelect$$' -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzMonteCarloDraws$$' -fuzztime $(FUZZTIME) ./internal/randvar/
	$(GO) test -run '^$$' -fuzz '^FuzzShipFrame$$' -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzLinearUniformAhead$$' -fuzztime $(FUZZTIME) ./internal/stream/

clean:
	rm -rf .bench_build

# LScatter build targets. Everything is stdlib Go; no external tools needed.

GO ?= go

.PHONY: all ci test race vet docs-check fuzz-smoke golden-update resilience bench bench-compare bench-check rtf fleet-check figures examples examples-check served-check cover clean

all: vet test

# The full gate a PR must pass: vet with the gofmt check, the suite under the
# race detector, the doc-comment and make-target check, the example-stdout
# goldens, the fleet-engine scaling gate, the server smoke (end-to-end
# crash/restart, then load with required coalesce + disk-hit evidence) and
# the repository benchmark's output checks. Run it before pushing.
ci: vet race docs-check examples-check fleet-check served-check bench-check

test:
	$(GO) test ./...

# Full suite under the race detector; the experiment pool and waveform cache
# must stay race-clean.
race:
	$(GO) test -race ./...

# Build, vet, and fail on any file gofmt would rewrite. gofmt gets each
# package directory's files rather than the directories, so it does not
# recurse into .bench_build/ or the separate perfbench module. The perfbench
# module is vetted too: it compiles against internal/ APIs, so a change there
# that breaks it fails here rather than later in bench-check.
vet:
	$(GO) build ./... && $(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@unformatted=$$(for d in $$($(GO) list -f '{{.Dir}}' ./...); do gofmt -l $$d/*.go; done); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi

# Every package and command must carry a doc comment, every docs page must be
# reachable from README.md, every `make <target>` the docs name must exist,
# every backticked pkg.Name they cite must be declared, and every docs page and
# internal/ path they cite must exist (see tools/docscheck.sh).
docs-check:
	sh tools/docscheck.sh

# 30 seconds of native fuzzing per target on top of the committed corpora
# (testdata/fuzz/). The receiver and the frame decoder must never panic on
# arbitrary input, and the fast DSP kernels must match their references (see
# docs/RESILIENCE.md).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/ue -run='^$$' -fuzz=FuzzEstimateCFO -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/scatterframe -run='^$$' -fuzz=FuzzDecode$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dsp -run='^$$' -fuzz=FuzzCorrelatorEquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dsp -run='^$$' -fuzz=FuzzFIREquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dsp -run='^$$' -fuzz=FuzzFFTEquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/bits -run='^$$' -fuzz=FuzzViterbiEquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/modem -run='^$$' -fuzz=FuzzDemapSoftEquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzSpecDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store -run='^$$' -fuzz=FuzzArtifactDecode -fuzztime=$(FUZZTIME)

# Regenerate the golden conformance vectors (testdata/*.json) after an
# intentional waveform or RNG change; review the diff like code.
golden-update:
	$(GO) test -run TestGolden -update .

# The link-resilience sweep: the exact chain through the fault-injection
# ladder (see docs/RESILIENCE.md).
resilience:
	$(GO) run ./cmd/lscatter-bench -id R1

# Regenerate every paper table/figure, the ablations and the validation.
figures:
	$(GO) run ./cmd/lscatter-bench -all

# One benchmark per paper artifact plus the signal-path micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Diff two `lscatter-bench -metrics` reports with tools/benchdiff (override
# OLD/NEW to compare other runs): per-artifact wall clock and allocation
# deltas plus totals; fails on a total alloc_bytes regression beyond the
# tool's threshold. The wall figures are single-run and advisory.
OLD ?= BENCH_R4.json
NEW ?= BENCH_R5.json
bench-compare:
	$(GO) run ./tools/benchdiff $(OLD) $(NEW)

# Print the float Session's real-time factor at 20 MHz; see
# docs/PERFORMANCE.md.
rtf:
	$(GO) run ./cmd/lscatter-bench -rtf

# The repository benchmark's byte-identical gate: one short seed-1 run of
# each workload (perfbench/README.md). run.sh exits 0 even when an output
# check fails, so the gate reads the verdict from the run's last line, which
# must carry "correct":true.
bench-check:
	@for w in paper-sweep exact-link served-mix; do \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1) || exit 1; \
		echo "$$w: $$last"; \
		case "$$last" in *'"correct":true'*) ;; *) echo "bench-check: $$w failed its output checks" >&2; exit 1;; esac; \
	done

# The fleet-engine gate: fleet and simlink tests under the race detector,
# then the parked-heavy scaling smoke — a 10x-larger fleet at fixed aggregate
# load must not cost more than 3x the wall time (see docs/FLEET.md).
fleet-check:
	$(GO) test -race -count=1 ./internal/fleet ./internal/simlink
	$(GO) run ./tools/fleetcheck

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/smarthome
	$(GO) run ./examples/continuousauth
	$(GO) run ./examples/spectrumsurvey
	$(GO) run ./examples/multitag

# Golden-stdout smoke tests for every example (testdata/examples/*.txt);
# regenerate after an intentional output change with
# `go test -run TestExampleStdout -update .` and review the diff.
examples-check:
	$(GO) test -run TestExampleStdout -count=1 .

# End-to-end smoke of the deployment-simulation server binary: build it,
# require -workers 0 to exit 2 before listening, launch on an ephemeral port,
# healthz + one tiny run over real TCP, then a SIGTERM graceful-drain exit —
# followed by the durability phase (one disk probe and one disk write per
# computed run, SIGKILL mid-life and a restart that must serve the same body
# from disk without recompute) and LOADTIME of mixed load bursts
# (concurrent-identical, duplicate, unique, canceled) against a 1-entry
# memory store over a temp artifact dir, which fails unless coalesced joins
# AND disk hits both happened and prints sustained runs/sec (baseline in
# docs/BENCHMARKS.md; see docs/SERVING.md).
LOADTIME ?= 5s
served-check:
	$(GO) build -o bin/lscatter-served ./cmd/lscatter-served
	$(GO) run ./tools/servedcheck -bin bin/lscatter-served -load-time $(LOADTIME)

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean -testcache

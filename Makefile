# Mirrors .github/workflows/ci.yml so contributors can run CI locally:
#   make        -> build
#   make ci     -> everything the workflow runs
.PHONY: all build test lint bench fuzz chaos ci

all: build

# Compile every package and command.
build:
	go build ./...

# Run the full test suite with the race detector, as CI does, then vet and
# test the benchmark module (its own go.mod, so ./... above skips it).
test:
	go test -race ./...
	cd perfbench && go vet ./... && go test ./...

# Formatting and static checks (gofmt + go vet + doc-comment, API-lock,
# and markdown-link checks; no external linters).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	go vet ./...
	go run ./scripts/doccheck . internal/service internal/fuzz internal/campaign internal/oracle internal/oracle/registry internal/metrics internal/core internal/telemetry internal/cluster
	go run ./scripts/apilock
	./scripts/linkcheck.sh

# One pass over every Go benchmark (the paper's figures at reduced scale
# and the package microbenchmarks) as a smoke test, then one short run of
# each perfbench workload (perfbench/run.sh). perfbench exits 1 on any
# failed operation or failed output check; its timings are not gated
# here. Full paper-scale figures: cmd/glade-bench.
bench:
	go test -run=NONE -bench=. -benchtime=1x ./...
	for w in learn learn-exec serve campaign; do \
		bash perfbench/run.sh --workload "$$w" --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# Longer local runs of the native fuzz targets that lock down the
# recognition ladder (differential verdicts across all rungs), the
# grammar wire format (Unmarshal/Marshal/Compile round trip), the
# generator's flat derivation (sample-and-splice against a from-scratch
# recomputation) and the learner's substitution table (differential
# against Match). CI runs the same targets at a 30s smoke budget;
# override with FUZZTIME=10m etc.
FUZZTIME ?= 2m
fuzz:
	go test ./internal/cfg -run='^$$' -fuzz='^FuzzAcceptsDifferential$$' -fuzztime=$(FUZZTIME)
	go test ./internal/cfg -run='^$$' -fuzz='^FuzzCompileRoundTrip$$' -fuzztime=$(FUZZTIME)
	go test ./internal/cfg -run='^$$' -fuzz='^FuzzDerivSplice$$' -fuzztime=$(FUZZTIME)
	go test ./internal/rex -run='^$$' -fuzz='^FuzzSubstitutions$$' -fuzztime=$(FUZZTIME)

# Chaos smoke for the fault-tolerant oracle stack: learn sed and xml
# through a deterministic ~10% transient-fault injector and assert zero
# aborts with byte-identical grammars (retries never change a verdict).
chaos:
	./scripts/chaos_smoke.sh

ci: lint build test bench chaos

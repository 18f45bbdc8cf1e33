# Mirrors the build job of .github/workflows/ci.yml so contributors can
# run it locally (`make fuzz` is a longer run of the fuzz-smoke job; the
# cluster and campaign smoke jobs run scripts/*_smoke.sh):
#   make        -> build
#   make ci     -> everything the workflow's build job runs
.PHONY: all build test lint bench fuzz ci

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
	go run ./scripts/doccheck
	go run ./scripts/apilock
	./scripts/linkcheck.sh

# One pass over every Go benchmark (the package microbenchmarks) as a
# smoke test, then one short run of each perfbench workload
# (perfbench/run.sh). perfbench exits 1 on any failed operation or failed
# output check; its timings are not gated here. The paper's figures:
# cmd/glade-bench (-quick for reduced scale).
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

ci: lint build test bench

GO ?= go

.PHONY: build test bench bench-smoke bench-compare vet figures serve load \
	lint koalalint staticcheck vuln lint-tools

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test -race ./...

# --- Static analysis (see docs/determinism.md) -------------------------------
#
# koalalint is the repo's own go/analysis-style suite: detwalltime,
# detorder, detrand and hotpathalloc mechanically enforce the determinism
# and hot-path invariants the byte-identical-summaries claim rests on. It
# is stdlib-only, so it always runs. staticcheck and govulncheck are
# external, pinned below; their targets use an installed binary when one
# is present and skip with install instructions otherwise (the module
# itself stays dependency-free). CI installs both via `make lint-tools`.

STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

lint: koalalint staticcheck vuln

koalalint:
	$(GO) run ./tools/koalalint ./...

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

staticcheck:
	@bin="$$(command -v staticcheck || true)"; \
	[ -n "$$bin" ] || { p="$$($(GO) env GOPATH)/bin/staticcheck"; [ -x "$$p" ] && bin="$$p"; }; \
	if [ -n "$$bin" ]; then \
		echo "$$bin ./..."; "$$bin" ./...; \
	else \
		echo "staticcheck not installed; skipping (run: make lint-tools)"; \
	fi

vuln:
	@bin="$$(command -v govulncheck || true)"; \
	[ -n "$$bin" ] || { p="$$($(GO) env GOPATH)/bin/govulncheck"; [ -x "$$p" ] && bin="$$p"; }; \
	if [ -n "$$bin" ]; then \
		echo "$$bin ./..."; "$$bin" ./...; \
	else \
		echo "govulncheck not installed; skipping (run: make lint-tools)"; \
	fi

# Full benchmark run; writes $(BENCH_OUT) (name -> ns/op, allocs/op and
# custom metrics) so the perf trajectory accrues one file per PR — bump
# the default each PR, or override: make bench BENCH_OUT=BENCH_PRn.json.
# Each benchmark runs six times; benchjson records the median of every
# metric with its sample count and quartile spread.
# Two steps so a failing benchmark run fails the target instead of being
# masked by the pipe's exit status.
BENCH_OUT ?= BENCH_PR28.json

bench:
	$(GO) test -run=NONE -bench=. -benchmem -count=6 . ./internal/sim ./internal/koala ./internal/gram ./internal/core ./internal/experiment > bench.raw.tmp
	$(GO) run ./tools/benchjson -o $(BENCH_OUT) < bench.raw.tmp
	@rm -f bench.raw.tmp

# One iteration of every benchmark — a fast CI smoke that they still run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...

# The CI regression gate, locally: a 1x smoke run diffed against the
# committed baseline (allocs/op and custom */op counts gate; ns/op needs
# >1 iteration).
BENCH_BASELINE ?= BENCH_PR28.json

bench-compare:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./... > bench.smoke.tmp
	$(GO) run ./tools/benchjson -o bench.smoke.json < bench.smoke.tmp > /dev/null
	$(GO) run ./tools/benchjson -compare $(BENCH_BASELINE) bench.smoke.json -threshold 10
	@rm -f bench.smoke.tmp bench.smoke.json

figures: build
	$(GO) run ./cmd/figures -runs 4

# Run the koalad experiment server on :8080 (see README "Server mode").
serve: build
	$(GO) run ./cmd/koalad

# One-command load test: koalaload self-hosts a koalad and drives the
# default 2000-client fleet at it, writing the measurements as
# $(LOAD_OUT) (benchjson schema; see docs/load.md). Exit status is
# nonzero if any client saw an unexpected error.
LOAD_OUT ?= BENCH_KOALALOAD.json
LOAD_CLIENTS ?= 2000

load: build
	$(GO) run ./cmd/koalaload -self-host -clients $(LOAD_CLIENTS) -o $(LOAD_OUT)

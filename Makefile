# capsim build/test/bench entry points. `make ci` is the gate every change
# must pass; `make bench` runs the benchmark harness (bench/, see
# bench/README.md) over every workload.

GO ?= go

.PHONY: all build test short race ci-race ci-names vet fmt staticcheck ci bench bench-smoke bench-check render-diff bench-obs-smoke bench-study-cache-smoke bench-zoo-smoke serve-smoke fuzz-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race -timeout 30m ./...

# ci-race is the focused race lane over the concurrency-heavy packages — the
# flight recorder's publication fan-out, the memo package's singleflight and
# LRU eviction (every memo tier rests on it), the obs counters, the API server's
# streaming/admission paths, the sweep pool and the instruction store's
# concurrent chunk publication, and the policy layer's race families
# (concurrent extension, cancellation and prefix views) — cheap enough to run
# on every iteration (the full `race` target covers the whole module).
RACE_RUN = RaceFamilyConcurrent|RaceFamilyCancelledExtension|FixedRosterExtension
RACE_RUN_PKG = ./internal/core/

ci-race:
	$(GO) test -race -timeout 10m ./internal/flight/ ./internal/memo/ ./internal/obs/ ./internal/server/ ./internal/sweep/ ./internal/trace/
	$(GO) test -race -timeout 10m -run '$(RACE_RUN)' $(RACE_RUN_PKG)

# ci-names (ci-gated) fails when a name the ci-race lane's -run pattern or
# FUZZ_TARGETS lists matches no function: `go test` passes silently on a
# pattern that selects nothing, so a renamed test or fuzzer would otherwise
# turn its CI step into a no-op. `go test -list` checks each name.
ci-names:
	@for n in $$(echo '$(RACE_RUN)' | tr '|' ' '); do \
		$(GO) test -list "$$n" $(RACE_RUN_PKG) | grep -q '^Test' || \
			{ echo "ci-race: -run name $$n matches no test in $(RACE_RUN_PKG)"; exit 1; }; \
	done
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t#*:}; \
		$(GO) test -list "^$$fn\$$" $$pkg | grep -qx "$$fn" || \
			{ echo "fuzz-smoke: $$fn matches no fuzz target in $$pkg"; exit 1; }; \
	done
	@echo "ci-names ok (every ci-race -run name and FUZZ_TARGETS entry names a function)"

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# staticcheck runs when it is installed (on PATH or in GOPATH/bin) and
# otherwise says it was skipped; it never installs itself, so the target
# needs no network. Test-only production code is caught in tier-1 by
# TestNoTestOnlyProductionCode, not here.
staticcheck:
	@gobin="$$($(GO) env GOPATH)/bin"; \
	if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	elif [ -x "$$gobin/staticcheck" ]; then \
		"$$gobin/staticcheck" ./... ; \
	else \
		echo "WARNING: staticcheck not installed; static analysis SKIPPED"; \
	fi

ci: fmt vet staticcheck build ci-names ci-race race fuzz-smoke bench-smoke bench-obs-smoke bench-study-cache-smoke bench-zoo-smoke serve-smoke

# fuzz-smoke (ci-gated) runs every fuzzer for 5 s beyond its seed corpus
# (which plain `go test` already replays): the ooo engine and MultiCore
# differentials, the MultiHierarchy and TLB differentials, the
# classification round trip, the study-cache envelope, the row codec and
# the keys that share its encoding, the ledger parser and encoder, the API request decoder, the rng cut tables,
# the fixed-point formatter and table renderers against strconv and fmt,
# and the capsim command line.
# `go test -fuzz` takes one target per run, hence the loop.
FUZZ_TARGETS = \
	./internal/ooo:FuzzOooEngines \
	./internal/ooo:FuzzMultiCore \
	./internal/cache:FuzzMultiHierarchy \
	./internal/tlb:FuzzTLB \
	./internal/classify:FuzzClassifyRoundTrip \
	./internal/memo:FuzzPersistEnvelope \
	./internal/memo:FuzzRowCodec \
	./internal/flight:FuzzParseLedger \
	./internal/flight:FuzzLedgerEncode \
	./internal/server:FuzzRunRequest \
	./internal/rng:FuzzCutTable \
	./internal/metrics:FuzzAppendFixed \
	./internal/metrics:FuzzRender \
	./cmd/capsim:FuzzParseArgs

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t#*:}; \
		echo "fuzz $$fn ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime 5s $$pkg || exit 1; \
	done

# bench-smoke (ci-gated) runs every benchmark of the generator layers —
# workload, rng and trace — and of the flight ledger encoder once
# (-benchtime 1x). A benchmark that fails at
# run time (its "short fill" check, a panic) then breaks CI instead of the
# next measurement.
BENCH_SMOKE_PKGS = ./internal/workload/ ./internal/rng/ ./internal/trace/ ./internal/flight/

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_SMOKE_PKGS)

# serve-smoke boots the experiment API server (-serve-api) on an ephemeral
# port and proves the service contract end to end: POST /v1/run renders
# byte-identical to the CLI, a repeat request hits the response cache, a
# request against a busy run slot gets 429, a streamed zoo carries all 108
# run columns on a first and a repeated request, a disconnected client's
# sweep stops claiming jobs, and SIGTERM drains the process to a zero exit.
serve-smoke:
	@GO="$(GO)" sh scripts/serve_smoke.sh

# bench runs every workload of the benchmark harness (end-to-end metrics;
# add --trace 1 by hand for the per-layer table).
bench:
	sh bench/run.sh --workload all

# bench-check compares two bench record files (bench/README.md):
# `make bench-check BASE=parent.jsonl NEW=change.jsonl` prints the
# per-workload table of `bench -compare` and fails if any end-to-end metric
# reads WORSE.
bench-check:
	@test -n "$(BASE)" -a -n "$(NEW)" || { echo "usage: make bench-check BASE=<records> NEW=<records>"; exit 2; }
	@out="$$(cd bench && $(GO) run . -compare $(abspath $(BASE)),$(abspath $(NEW)))" || { printf '%s\n' "$$out"; exit 1; }; \
	printf '%s\n' "$$out"; \
	if printf '%s\n' "$$out" | grep -q 'WORSE'; then echo "bench-check: a metric is WORSE than BASE"; exit 1; fi

# render-diff is the byte-identity check for refactors:
# `make render-diff BASE=<rev>` builds capsim at BASE (from `git archive`) and
# from the working tree and compares footer-stripped `-experiment all` renders
# with cmp at -parallel 1, -parallel 2 and -seed 1, and the decompressed
# flight ledgers of the -parallel 1 run without their time-stamped header
# line (scripts/render_diff.sh).
# It writes nothing in the checkout. Not in ci: it needs a base revision.
render-diff:
	@test -n "$(BASE)" || { echo "usage: make render-diff BASE=<rev>"; exit 2; }
	@GO="$(GO)" sh scripts/render_diff.sh "$(BASE)"

# bench-obs-smoke (ci-gated) renders a tiny-budget fig10 run with
# telemetry off and on (-metrics-out), asserting byte-identical stdout
# renders (the timing footer is stripped; it is the only line allowed to
# differ) and that the manifest is produced; then a fig12 run with the
# flight recorder on (-ledger-out), asserting the render is byte-identical to
# recorder-off and that the recorded ledger parses back through
# `capsim -report`. The engines' invariants (ooo.Core.CheckInvariants,
# flight.CheckRun) are checked by the core and experiments tests.
bench-obs-smoke:
	@$(GO) run ./cmd/capsim -experiment fig10 -parallel 2 -queue-instrs 3000 \
		| grep -v '^(fig10 in ' > /tmp/capsim_obs_off.txt
	@$(GO) run ./cmd/capsim -experiment fig10 -parallel 2 -queue-instrs 3000 \
		-metrics-out /tmp/capsim_obs_smoke.json \
		2>/dev/null | grep -v '^(fig10 in ' > /tmp/capsim_obs_on.txt
	@cmp /tmp/capsim_obs_off.txt /tmp/capsim_obs_on.txt || \
		{ echo "obs-enabled run rendered differently"; exit 1; }
	@test -s /tmp/capsim_obs_smoke.json || { echo "manifest missing"; exit 1; }
	@$(GO) run ./cmd/capsim -experiment fig12 -parallel 2 \
		| grep -v '^(fig12 in ' > /tmp/capsim_ledger_off.txt
	@$(GO) run ./cmd/capsim -experiment fig12 -parallel 2 \
		-ledger-out /tmp/capsim_obs_smoke.ledger.gz \
		2>/dev/null | grep -v '^(fig12 in ' > /tmp/capsim_ledger_on.txt
	@cmp /tmp/capsim_ledger_off.txt /tmp/capsim_ledger_on.txt || \
		{ echo "ledger-enabled run rendered differently"; exit 1; }
	@$(GO) run ./cmd/capsim -report /tmp/capsim_obs_smoke.ledger.gz | grep -q '^league:' || \
		{ echo "recorded ledger failed to parse back through -report"; exit 1; }
	@echo "bench-obs smoke ok (renders byte-identical with manifest/ledger on; ledger round-trips)"

# bench-study-cache-smoke (ci-gated, scripts/study_cache_smoke.sh): two
# tiny-budget processes run disjoint -experiment subsets against one
# -study-cache; a run of their union over that cache renders byte-identical
# to the union with no cache, and served its study rows from the cache
# (memo.persist_hits > 0, zero misses, in its run manifest).
bench-study-cache-smoke:
	@GO="$(GO)" sh scripts/study_cache_smoke.sh

# bench-zoo-smoke (ci-gated): a tiny-budget zoo run proving
# the league render is byte-identical at 1 vs 4 workers and both cold into and
# warm from a fresh persistent study cache, and
# that `capsim -report` over the ledger the run emits reproduces the league
# tables byte-for-byte (the experiment header and timing footer are
# stripped, plus the blank separators the experiment renderer leaves before
# its footer; every table byte must match).
bench-zoo-smoke:
	@$(GO) run ./cmd/capsim -experiment zoo -parallel 1 -queue-instrs 3000 \
		| grep -v '^(zoo in ' > /tmp/capsim_zoo_p1.txt
	@$(GO) run ./cmd/capsim -experiment zoo -parallel 4 -queue-instrs 3000 \
		| grep -v '^(zoo in ' > /tmp/capsim_zoo_p4.txt
	@cmp /tmp/capsim_zoo_p1.txt /tmp/capsim_zoo_p4.txt || \
		{ echo "zoo rendered differently at 1 vs 4 workers"; exit 1; }
	@rm -rf /tmp/capsim_zoo_smoke && mkdir -p /tmp/capsim_zoo_smoke
	@$(GO) build -o /tmp/capsim_zoo_smoke/capsim ./cmd/capsim
	@for leg in cold warm; do /tmp/capsim_zoo_smoke/capsim -experiment zoo -parallel 2 -queue-instrs 3000 \
		-study-cache /tmp/capsim_zoo_smoke/cache | grep -v '^(zoo in ' > /tmp/capsim_zoo_$$leg.txt; \
		cmp /tmp/capsim_zoo_p1.txt /tmp/capsim_zoo_$$leg.txt || \
		{ echo "zoo rendered differently $$leg from the study cache"; exit 1; }; done
	@$(GO) run ./cmd/capsim -experiment zoo -parallel 2 -queue-instrs 3000 \
		-ledger-out /tmp/capsim_zoo_smoke/zoo.ledger.gz 2>/dev/null \
		> /tmp/capsim_zoo_direct_full.txt
	@$(GO) run ./cmd/capsim -report /tmp/capsim_zoo_smoke/zoo.ledger.gz \
		> /tmp/capsim_zoo_report_full.txt
	@sed -n '/^league:/,$$p' /tmp/capsim_zoo_direct_full.txt | grep -v '^(zoo in ' \
		| awk '{l[NR]=$$0} END{n=NR; while(n>0 && l[n]=="") n--; for(i=1;i<=n;i++) print l[i]}' \
		> /tmp/capsim_zoo_direct.txt
	@sed -n '/^league:/,$$p' /tmp/capsim_zoo_report_full.txt \
		| awk '{l[NR]=$$0} END{n=NR; while(n>0 && l[n]=="") n--; for(i=1;i<=n;i++) print l[i]}' \
		> /tmp/capsim_zoo_report.txt
	@cmp /tmp/capsim_zoo_direct.txt /tmp/capsim_zoo_report.txt || \
		{ echo "capsim -report did not reproduce the zoo league tables"; exit 1; }
	@echo "bench-zoo smoke ok (renders byte-identical at 1 vs 4 workers and cold/warm study cache; -report reproduces the league)"

clean:
	rm -f /tmp/capsim_obs_off.txt /tmp/capsim_obs_on.txt \
	  /tmp/capsim_obs_smoke.json \
	  /tmp/capsim_ledger_off.txt /tmp/capsim_ledger_on.txt /tmp/capsim_obs_smoke.ledger.gz \
	  /tmp/capsim_zoo_p1.txt /tmp/capsim_zoo_p4.txt /tmp/capsim_zoo_cold.txt /tmp/capsim_zoo_warm.txt \
	  /tmp/capsim_zoo_direct_full.txt /tmp/capsim_zoo_report_full.txt \
	  /tmp/capsim_zoo_direct.txt /tmp/capsim_zoo_report.txt
	rm -rf /tmp/capsim_serve_smoke /tmp/capsim_study_cache_smoke /tmp/capsim_zoo_smoke

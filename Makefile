GO ?= go

.PHONY: check fmt-check vet determinism-grep build test race cover journal-smoke fuzz-smoke wire-smoke fault-smoke fault-sweep pool-smoke flock-smoke churn-smoke ops-smoke checkpoint-sweep bench bench-matchmaker bench-obs bench-pool bench-module bench-pairs trace

## check: the full gate — gofmt, vet, the determinism grep, build, race-test
## the concurrent packages, the whole suite with per-package coverage
## (including the golden-trace regression suite and the per-package
## coverage floors), the write-ahead-journal race smoke, the wire-codec
## and transport smoke, the fault-injection smoke matrix, the
## small-shape pool-throughput smoke, the federation smoke, the
## machine-churn determinism smoke, the ops-plane smoke, then the
## benchmark module's own vet and tests.
check: fmt-check vet determinism-grep build race cover journal-smoke wire-smoke fault-smoke pool-smoke flock-smoke churn-smoke ops-smoke bench-module

## fmt-check: every Go file in the repo (bench/ included) is
## gofmt-clean; lists the offenders and fails otherwise.
fmt-check:
	@out=$$(gofmt -l *.go cmd examples internal bench); \
	if [ -n "$$out" ]; then \
		echo 'FAIL: gofmt -l is not empty:'; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

## determinism-grep: the simulated daemons and the engine must never
## read the wall clock or the global math/rand state outside tests —
## one stray time.Now() is enough to make same-seed traces diverge.
## (Seeded rand.New(rand.NewSource(...)) instances are fine and do not
## match the pattern.)  The live socket transport, internal/rpc, needs
## the wall clock for its I/O deadlines; that is why it is a package
## of its own, outside internal/wire and internal/monitor.
determinism-grep:
	@if grep -rnE 'time\.Now\(|\brand\.(Int|Float|Perm|Shuffle|Seed|Exp|Norm)' \
		--include='*.go' --exclude='*_test.go' internal/daemon internal/sim internal/wire internal/monitor; then \
		echo 'FAIL: wall clock or global math/rand state in a deterministic package'; \
		exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the whole suite under the race detector.  The parallel engine
## runs same-instant events on a worker pool, so every package — not
## just the live socket paths — must be race-clean.
race:
	$(GO) test -race ./...

## cover: the whole suite with a per-package coverage summary, written
## to cover.txt.  The test run's exit status is captured explicitly —
## a plain pipe into tee would swallow a failing suite, because the
## recipe shell is plain sh with no pipefail.  Every package in
## COVER_PKGS is a regression-suite foundation (the tracing layer, the
## write-ahead journal, the wire codec, the live transport) and must
## stay at or above the COVER_FLOOR.
COVER_PKGS = \
	github.com/errscope/grid/internal/obs \
	github.com/errscope/grid/internal/journal \
	github.com/errscope/grid/internal/wire \
	github.com/errscope/grid/internal/rpc \
	github.com/errscope/grid/internal/faultinject \
	github.com/errscope/grid/internal/live \
	github.com/errscope/grid/internal/monitor
COVER_FLOOR = 85
cover:
	@$(GO) test -cover ./... > cover.txt 2>&1; status=$$?; \
	cat cover.txt; \
	if [ $$status -ne 0 ]; then \
		echo "FAIL: go test -cover exited $$status"; exit $$status; \
	fi
	@for pkg in $(COVER_PKGS); do \
		awk -v pkg="$$pkg" -v floor="$(COVER_FLOOR)" ' \
			$$2 == pkg { \
				for (i = 1; i <= NF; i++) if ($$i == "coverage:") { \
					found = 1; c = $$(i+1); sub(/%/, "", c); \
					if (c + 0 < floor) { \
						printf "FAIL: %s coverage %s%% is below the %s%% floor\n", pkg, c, floor; \
						exit 1; \
					} \
					printf "%s coverage %s%% (floor: %s%%)\n", pkg, c, floor; \
				} \
			} \
			END { if (!found) { printf "FAIL: no coverage reported for %s\n", pkg; exit 1 } }' cover.txt || exit 1; \
	done

## journal-smoke: the schedd write-ahead journal under the race
## detector — concurrent append/compact/replay plus the torn-tail and
## fuzz-seeded decode tests — and then its one client: the schedd's
## crash, group-commit, replay and recovery tests, which include the
## replay decoder's differential seeds and its cost guards.
journal-smoke:
	$(GO) test -race -count=1 ./internal/journal/
	$(GO) test -race -count=1 -run 'Schedd|GroupCommit|Replay|Recover' ./internal/daemon/

## fuzz-smoke: every Fuzz* target in the repo, FUZZTIME each (default
## 5s).  The targets come from `go test -list`, so a new one is picked
## up without touching this file; the corpus the fuzzer grows goes to
## .fuzz-cache/ (ignored), and only a failing input lands under the
## package's testdata/.  Not part of `check`: CI runs it nightly.
FUZZTIME ?= 5s
fuzz-smoke:
	@$(GO) test -list '^Fuzz' ./... | \
	awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg target; do \
		echo "== $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) \
			-test.fuzzcachedir $(CURDIR)/.fuzz-cache || exit 1; \
	done

## wire-smoke: the frame codec, AEAD session, the shared transport and
## both protocol stacks' binary/secure modes under the race detector —
## the fuzz seed corpus, the truncation-at-every-offset sweep, the
## replay and tamper tests, the transport conformance suite, and
## encrypted live round trips.
wire-smoke:
	$(GO) test -race -count=1 ./internal/wire/ ./internal/rpc/ ./internal/chirp/ ./internal/remoteio/

## fault-smoke: one fault-injection cell per error class; exits
## non-zero on any misclassification.
fault-smoke:
	$(GO) run ./cmd/experiments -run fault-smoke

## fault-sweep: the full conformance matrix — every error class at
## every injection site.
fault-sweep:
	$(GO) run ./cmd/experiments -run fault-sweep

## flock-smoke: one small federated shape end to end — every home job
## must flock to a peer pool to finish — serial, rerun, and parallel
## arms byte-compared, plus the peer-pool-death zero-loss cell on both
## engines.  The gate that keeps federation deterministic and its
## failure semantics scoped.
flock-smoke:
	$(GO) run ./cmd/experiments -run flock-smoke

## churn-smoke: a churned pool of checkpointing standard jobs run on
## the serial and parallel engines — dispositions compared byte for
## byte, every job must complete, and every eviction must stay scoped
## to the claim.  The gate that keeps machine churn deterministic.
churn-smoke:
	$(GO) run ./cmd/experiments -run churn-smoke

## ops-smoke: the live-operations-plane gate — the same seeded
## workload run bare and monitored (streaming subscribers, one dying
## mid-stream, a drain issued through the admin plane, a detach),
## serial, rerun, and parallel, with dispositions and trace export
## byte-compared against the bare run.  The gate that keeps
## observation and administration scoped to their own sessions.
ops-smoke:
	$(GO) run ./cmd/experiments -run ops-smoke

## checkpoint-sweep: the checkpoint-interval overhead-vs-rework curve
## under machine churn; writes checkpoint_sweep.json.
checkpoint-sweep:
	$(GO) run ./cmd/experiments -run checkpoint-sweep

## pool-smoke: one small pool shape end to end in three arms — the
## pre-PR-5 reference schedd, the optimized serial schedd, and the
## parallel engine at workers>1 — dispositions compared byte for byte,
## plus a golden-trace spot check of one fault cell on the parallel
## engine.  The gate that keeps the throughput work trace-equivalent.
pool-smoke:
	$(GO) run ./cmd/experiments -run pool-smoke

## bench: the Go benchmark suite with allocation reporting.
bench:
	$(GO) test -bench=. -benchmem .

## bench-matchmaker: the negotiation fast-path harness; writes
## BENCH_matchmaker.json.
bench-matchmaker:
	$(GO) run ./cmd/experiments -run bench-matchmaker

## bench-obs: the tracing overhead harness (matchmaker and shadow hot
## paths under off/nop/recorder tracers); writes BENCH_obs.json.
bench-obs:
	$(GO) run ./cmd/experiments -run bench-obs

## bench-pool: the end-to-end pool-throughput harness — full job
## lifecycles (schedd -> matchmaker -> shadow -> startd -> starter) at
## GridSim-like shapes, optimized and reference arms; writes
## BENCH_pool.json.
bench-pool:
	$(GO) run ./cmd/experiments -run bench-pool

## bench-module: bench/ is a module of its own, so `go vet ./...` and
## `go test ./...` at the root never compile it; this does, so that a
## live-stack name the benchmark uses cannot move without it noticing.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

## bench-pairs: how a PR that claims a gain is judged (bench/README.md):
## N alternating runs of workload W on revision PARENT and on this
## checkout, then medians, quartiles, pair-wise wins and the median
## ratio of every end-to-end metric; fails if the digests differ.
##   make bench-pairs PARENT=HEAD~1 W=pool-deep N=10 [SEED=42] [SECS=10]
N ?= 10
SEED ?= 42
SECS ?= 10
bench-pairs:
	@bash scripts/bench-pairs.sh "$(PARENT)" "$(W)" $(N) $(SEED) $(SECS)

## trace: regenerate the canonical per-class propagation traces under
## traces/ (the committed goldens live in
## internal/experiments/testdata/traces).
trace:
	$(GO) run ./cmd/experiments -run trace

GO ?= go

.PHONY: check loc fmt-check vet determinism-grep no-testing-in-binaries build test race cover journal-smoke fuzz-smoke wire-smoke fault-sweep checkpoint-sweep bench bench-module bench-pairs bench-counts trace

## check: the full gate — gofmt, vet, the determinism grep, the
## no-testing-in-binaries guard, build, the whole suite under the race
## detector, the whole suite again with per-package coverage and its
## floors, the journal and wire race smokes, then the benchmark
## module's own vet and tests.  The suite holds the regression gates:
## the golden traces, the fault sweep (TestFaultSweep, its whole report
## pinned in internal/experiments/testdata/sweep.golden) and its
## one-cell-per-class smoke (TestFaultSweepSmoke), and the shape table
## (TestShapes: every whole-pool shape serial == rerun == parallel,
## its digest, exact counts and allocations pinned in
## internal/experiments/testdata/shapes.golden).
check: fmt-check vet determinism-grep no-testing-in-binaries build race cover journal-smoke wire-smoke bench-module

## loc: the two sizes a simplicity change quotes — non-test and test
## Go lines outside bench/, over the files git tracks.
loc:
	@git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l | \
		awk '{ print "non-test Go lines outside bench/: " $$1 }'
	@git ls-files '*.go' | grep -v '^bench/' | grep '_test\.go$$' | xargs cat | wc -l | \
		awk '{ print "test Go lines outside bench/:     " $$1 }'

## fmt-check: every Go file in the repo (bench/ included) is
## gofmt-clean; lists the offenders and fails otherwise.
fmt-check:
	@out=$$(gofmt -l *.go cmd examples internal bench); \
	if [ -n "$$out" ]; then \
		echo 'FAIL: gofmt -l is not empty:'; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

## determinism-grep: no package under internal/ may read the wall
## clock or the global math/rand state outside tests — one stray
## time.Now() is enough to make same-seed traces diverge.  (Seeded
## rand.New(rand.NewSource(...)) instances are fine and do not match
## the pattern.)  The scan is an exclusion list, so a new package is
## covered by default.  Only the two wall-clock packages are left out:
## internal/rpc, the live socket transport, needs the wall clock for
## its I/O deadlines, and internal/live runs the daemons on it.
determinism-grep:
	@if grep -rnE 'time\.Now\(|\brand\.(Int|Float|Perm|Shuffle|Seed|Exp|Norm)' \
		--include='*.go' --exclude='*_test.go' \
		$$(ls -d internal/*/ | grep -vxE 'internal/(rpc|live)/'); then \
		echo 'FAIL: wall clock or global math/rand state in a deterministic package'; \
		exit 1; \
	fi

## no-testing-in-binaries: no shipped command links package testing.
## A benchmark or a test oracle belongs in a _test.go file; one that
## reaches a binary through a production package fails here.
no-testing-in-binaries:
	@deps=$$($(GO) list -deps ./cmd/... ./examples/...) || exit 1; \
	if echo "$$deps" | grep -qx testing; then \
		echo 'FAIL: package testing is linked into a command under cmd/ or examples/'; \
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
## write-ahead journal, the wire codec, the live transport and the two
## file protocols and file system on it, the ClassAd evaluator every
## match decision runs through, the daemons that make those decisions
## and carry each job, the one pool assembly every sweep, shape and
## benchmark pass builds on, the theory library of scopes, contracts
## and result files, the Section 4 program wrapper that classifies a
## thrown exception, and the Java I/O library whose errors it
## classifies) and must stay at or above the COVER_FLOOR.
COVER_PKGS = \
	github.com/errscope/grid/internal/classad \
	github.com/errscope/grid/internal/daemon \
	github.com/errscope/grid/internal/obs \
	github.com/errscope/grid/internal/journal \
	github.com/errscope/grid/internal/wire \
	github.com/errscope/grid/internal/rpc \
	github.com/errscope/grid/internal/faultinject \
	github.com/errscope/grid/internal/live \
	github.com/errscope/grid/internal/monitor \
	github.com/errscope/grid/internal/record \
	github.com/errscope/grid/internal/chirp \
	github.com/errscope/grid/internal/remoteio \
	github.com/errscope/grid/internal/vfs \
	github.com/errscope/grid/internal/pool \
	github.com/errscope/grid/internal/scope \
	github.com/errscope/grid/internal/wrapper \
	github.com/errscope/grid/internal/javaio
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
## detector — concurrent append/compact/replay plus the torn-tail,
## fuzz-seeded decode and segment tests, and the record language whose lenient
## cursor reads the journal back — and then its one client: the
## schedd's crash, group-commit, replay and recovery tests, which
## include the replay decoder's differential seeds and its cost guards,
## the history retired jobs move to (crashes at every retirement
## boundary, torn and damaged history frames), and the crash at every
## commit (each batch durable, dropped and torn).
journal-smoke:
	$(GO) test -race -count=1 ./internal/journal/ ./internal/record/
	$(GO) test -race -count=1 -run 'Schedd|GroupCommit|Replay|Recover|History|Retire|EveryCommit' ./internal/daemon/

## fuzz-smoke: every Fuzz* target in the repo, FUZZTIME each (default
## 5s); FUZZ=<regex> keeps only the targets it matches (e.g.
## `make fuzz-smoke FUZZ=Negotiate FUZZTIME=60s`), and a regex that
## matches none fails.  The targets come from `go test -list`, so a
## new one is picked up without touching this file; the corpus the
## fuzzer grows goes to .fuzz-cache/ (ignored), and only a failing
## input lands under the package's testdata/.  Not part of `check`: CI
## runs it nightly.
FUZZTIME ?= 5s
FUZZ ?= ^Fuzz
fuzz-smoke:
	@targets=$$($(GO) test -list '$(FUZZ)' ./... | \
	awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }'); \
	[ -n "$$targets" ] || { echo "fuzz-smoke: no Fuzz target matches FUZZ='$(FUZZ)'"; exit 1; }; \
	echo "$$targets" | while read pkg target; do \
		echo "== $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) \
			-test.fuzzcachedir $(CURDIR)/.fuzz-cache || exit 1; \
	done

## wire-smoke: the frame codec, AEAD session, the shared transport,
## both protocol stacks' binary/secure modes and the file system under
## them, under the race detector — the fuzz seed corpus, the
## truncation-at-every-offset sweep, the replay and tamper tests, the
## transport conformance suite, and encrypted live round trips — then
## ten runs of the shared-link test: two job connections of one proxy
## over one remoteio link, which pins that no buffer is shared across
## sessions.
wire-smoke:
	$(GO) test -race -count=1 ./internal/wire/ ./internal/rpc/ ./internal/chirp/ ./internal/remoteio/ ./internal/vfs/
	$(GO) test -race -count=10 -run '^TestSharedLinkKeepsSessionsApart$$' ./internal/remoteio/

## fault-sweep: the full conformance matrix — every error class at
## every injection site.
fault-sweep:
	$(GO) run ./cmd/experiments -run fault-sweep

## checkpoint-sweep: the checkpoint-interval overhead-vs-rework curve
## under machine churn; writes checkpoint_sweep.json.
checkpoint-sweep:
	$(GO) run ./cmd/experiments -run checkpoint-sweep

## bench: the Go benchmark suite with allocation reporting.
bench:
	$(GO) test -bench=. -benchmem .

## bench-module: bench/ is a module of its own, so `go vet ./...` and
## `go test ./...` at the root never compile it; this does, so that a
## live-stack name the benchmark uses cannot move without it noticing.
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

## bench-pairs: how a PR that claims a gain is judged (bench/README.md):
## N alternating runs of each workload in W on revision PARENT and on
## this checkout (both built once), then per workload the medians,
## quartiles, pair-wise wins and median ratio of every end-to-end
## metric; fails if a workload's digests differ.
##   make bench-pairs PARENT=HEAD~1 W="pool-faulty pool-wide" N=10 [SEED=42] [SECS=10]
N ?= 10
SEED ?= 42
SECS ?= 10
bench-pairs:
	@bash scripts/bench-pairs.sh "$(PARENT)" "$(W)" $(N) $(SEED) $(SECS)

## bench-counts: which layers' work a change moved (scripts/bench-counts.sh):
## one traced run (--trace 1) of each workload in W on revision PARENT
## and on this checkout, then the digest and every per-layer metric
## BENCHMARK.json counts in whole units (unit count or 1/job), parent
## beside change, each marked equal or moved.  It fails if the digest
## or any count not listed in MAY_MOVE moved.
##   make bench-counts PARENT=HEAD~1 W="pool-deep pool-faulty" [SEED=42] [MAY_MOVE="go.gc_cycles"]
bench-counts:
	@MAY_MOVE="$(MAY_MOVE)" bash scripts/bench-counts.sh "$(PARENT)" "$(W)" $(SEED)

## trace: regenerate the canonical per-class propagation traces under
## traces/ (the committed goldens live in
## internal/experiments/testdata/traces).
trace:
	$(GO) run ./cmd/experiments -run trace

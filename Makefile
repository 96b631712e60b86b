# Tier-1 verify is `make verify`: build, vet, gofmt, lint, test.
GO ?= go
FUZZTIME ?= 10s

.PHONY: build test test-1p race vet fmt lint lint-json lint-baseline lru-single bench fuzz stress stats-smoke parallel-race chaos-smoke geoblocks-smoke segment-smoke ingest-smoke loc flags unlinked verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages whose tests race the scheduler, on one P: the benchmark pins
# its servers to one P, and a join that finishes before a polling test can
# cancel it (TestParallelJoinCancelMidPass failed a third of its runs this
# way) only shows there, never on a multi-core runner's default.
test-1p:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/core ./internal/urbane ./internal/qcache

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt gate: fails when gofmt would change any tracked .go file outside
# testdata/. The analyzer fixtures under testdata/ are exempt: their goldens
# pin line:column positions.
fmt:
	@found=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$found" ]; then \
		echo "not gofmt-clean (run gofmt -w):"; \
		echo "$$found"; exit 1; \
	fi

# Project-specific static analysis (see README "Static analysis & CI").
# The committed lint.baseline records tolerated findings; the gate fails
# only on findings a change introduces. It holds one: floataccum at
# benchmark/calib.go:93, on the frozen benchmark path — ROADMAP item 5 owns
# the fix and empties the baseline again. Add nothing else to it.
lint:
	$(GO) run ./cmd/urbane-lint -baseline lint.baseline ./...

# Machine-readable findings (JSON array, repo-relative paths) for tooling.
lint-json:
	$(GO) run ./cmd/urbane-lint -baseline lint.baseline -json ./...

# Regenerate lint.baseline from the current tree. Only do this to baseline
# a finding that is understood and tracked; prefer fixing or a reasoned
# //lint:ignore.
lint-baseline:
	$(GO) run ./cmd/urbane-lint -write-baseline lint.baseline ./...

# One LRU in the tree: internal/lru is the recency list and eviction loop
# under every cache. A non-test file under internal/ or cmd/ that imports
# container/list is a hand-rolled LRU coming back; internal/admit is exempt
# (its list is a FIFO wait queue).
lru-single:
	@found=$$(grep -rl '"container/list"' internal cmd --include='*.go' --exclude='*_test.go' | grep -v '^internal/admit/'); \
	if [ -n "$$found" ]; then \
		echo "container/list imported outside internal/admit; build on internal/lru instead:"; \
		echo "$$found"; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Short-budget fuzzing of the input decoders, the radix time sort against
# sort.SliceStable, the segment reader over corrupted files, the query
# parser, the cache key and the selection entry encoding, the series join
# against per-bin joins (all five aggregates, both modes, the ε mode and
# small-texture tiled devices), the row-edge exact test and the compiled
# boundary membership records against Polygon.Contains and the point pass's
# pixel map against the reference mapping; go test accepts one -fuzz target
# per invocation.
fuzz:
	$(GO) test ./internal/data -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/data -run='^$$' -fuzz='^FuzzReadGeoJSON$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/data -run='^$$' -fuzz='^FuzzSortByTime$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/query -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qcache -run='^$$' -fuzz='^FuzzCacheKey$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qcache -run='^$$' -fuzz='^FuzzResultEntry$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/urbane -run='^$$' -fuzz='^FuzzAdmitEnvelope$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/geoblocks -run='^$$' -fuzz='^FuzzClassify$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/segment -run='^$$' -fuzz='^FuzzSegmentRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/segment -run='^$$' -fuzz='^FuzzSegmentOpen$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzSeriesMatchesPerBin$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/raster -run='^$$' -fuzz='^FuzzRowEdgeContains$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/raster -run='^$$' -fuzz='^FuzzBoundaryMembership$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/raster -run='^$$' -fuzz='^FuzzPixelMap$$' -fuzztime=$(FUZZTIME)

# Parallel passes and span cache suite under the race detector: the
# bit-identical property tests (parallel == sequential at every worker
# count), the golden digests of joins, flows, density, series and tiled
# renders (every worker count reproduces the recorded bits), the
# cancellation-hygiene tests, the span cache, the compiled layer's
# row-edge reference and boundary membership records, the data sets'
# bounds memo, resolve against its per-fragment reference and leaving its
# tile clean, the accurate flow join, and the texture and scratch pools:
# marks that hold after faults and cancellations, and two goroutines sharing
# one joiner's pools. The region-parallel refine of pass 3 runs at 1, 2, 3
# and 4 workers among them (TestParallelWorkersBitIdentical, the goldens,
# TestResolveMatchesMerge).
parallel-race:
	$(GO) test -race -count=1 \
		-run 'Parallel|Golden|SpanCache|CompileRegions|RowEdge|Membership|Cancel|Bounds|Resolve|AccurateFlow|Pooled' \
		./internal/gpu ./internal/raster ./internal/core ./internal/data

# End-to-end deadline smoke test: boot the real server with a 1ms
# -query-timeout, require a 504 on /api/mapview and a nonzero timeout
# counter in GET /api/stats, with live render resources reaching zero
# within 2s (eventual quiescence, see qcache.DoContext). Twenty runs: the
# leak check used to flake about one run in six.
stats-smoke:
	$(GO) test -count=20 -run '^TestStatsSmoke$$' ./cmd/urbane-server

# Concurrency suite under the race detector: cache stress, coalescing, and
# the cache-on/cache-off byte-identical property over the HTTP handlers; the
# slab fold racing appends and the geoblocks store's shared builds; readers
# of a snapshot's zone maps racing the appends that inherit them; plus the
# model-based suite of the LRU underneath them.
stress:
	$(GO) test -race -count=1 -run 'Stress|Coalesc|Concurrent|CacheOnOff|Store' \
		./internal/qcache ./internal/urbane ./internal/tcache ./internal/geoblocks
	$(GO) test -race -count=1 -run '^TestAppendCOWConcurrentZoneReads$$' ./internal/data
	$(GO) test -race -count=1 ./internal/lru

# Seeded chaos soak under the race detector: 64 virtual users against a
# server with admission control, a deterministic fault schedule on every
# hook site, and aggressive client deadlines; asserts the response
# envelope contract, zero leaks, and byte-identical post-chaos replay
# against a pristine server. Also the committed replay digests of the
# standard server across serving configurations (TestReplayDigests), and
# the admission/fault unit suites.
chaos-smoke:
	$(GO) test -race -count=1 -run 'Chaos|Soak|Replay' ./internal/chaos
	$(GO) test -race -count=1 ./internal/admit ./internal/fault

# GeoBlocks hierarchy equivalence gate under the race detector: a seeded
# pyramid build plus 50 hybrid-vs-full-join queries across all five
# aggregates (TestGeoBlocksSmoke), the concurrent build-while-query
# stress, and the cost rule that hands fine whole-layer requests to the
# raster join (TestGeoBlocksDeclinesByCost).
geoblocks-smoke:
	$(GO) test -race -count=1 \
		-run '^(TestGeoBlocksSmoke|TestConcurrentBuildWhileQuery|TestGeoBlocksDeclinesByCost)$$' \
		./internal/geoblocks

# Columnar segment gate under the race detector: the segment format unit
# suite, the randomized segment-vs-RAM bit-identical equivalence suite
# (joins, series, density, flows and scattered joins; out-of-core cache
# budgets, prune counters, cancellation hygiene), and the segment-backed
# chaos soak with its byte-identical replay against an in-RAM server.
segment-smoke:
	$(GO) test -race -count=1 ./internal/segment
	$(GO) test -race -count=1 -run '^TestSegment' ./internal/core
	$(GO) test -race -count=1 -run '^TestChaosSoak$$' ./internal/chaos

# Incremental-maintenance gate under the race detector: append-while-query
# smoke over every path an append reaches (slab fold, geoblocks patch,
# tiles, per-dataset epoch keys), the lineage an appended set inherits and
# its inherited zone maps (against fresh builds, and racing readers of the
# parent), the geoblocks patch-vs-rebuild metamorphic suite and the sparse
# patch against the dense reference, the slab fold property suites (sealed
# slabs along an append lineage included), and the concurrent-ingest chaos
# soak with its byte-identical replay against a pristine server fed the
# same appends.
ingest-smoke:
	$(GO) test -race -count=1 -run '^TestIngestSmoke$$|^TestAppend' ./internal/urbane
	$(GO) test -race -count=1 -run '^TestAppendCOW' ./internal/data
	$(GO) test -race -count=1 -run '^TestPatch' ./internal/geoblocks
	$(GO) test -race -count=1 ./internal/tcache ./internal/workload
	$(GO) test -race -count=1 -run '^TestIngestSoakReplay$$' ./internal/chaos

# Non-test Go lines per package directory, then the total, outside
# benchmark/ and testdata/: the size figure a simplicity change reports.
# The last line is the total of _test.go lines under the same exclusions.
# Informational, not a gate.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path './benchmark/*' ! -path '*/testdata/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); sub("^[.]/", "", d); n[d] += $$1; sum += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", sum }'
	@find . -name '*_test.go' ! -path './.*' ! -path './benchmark/*' ! -path '*/testdata/*' \
		| xargs cat | wc -l | awk '{ printf "%7d  test total\n", $$1 }'

# urbane-server's flag names, one a line, then their count, read from its
# -h output: the knob figure a simplicity change reports beside make loc.
# Informational, not a gate; README's flag table is pinned by
# TestReadmeFlagTable.
flags:
	@out=$$($(GO) run ./cmd/urbane-server -h 2>&1) || { echo "$$out"; exit 1; }; \
	echo "$$out" | awk '/^  -/ { print "  " substr($$1, 2); n++ } END { printf "%7d  flags\n", n }'

# The non-test functions under internal/ that no binary links, then their
# count: every main package (cmd/* and benchmark) is built without inlining
# into a temporary directory, and a function is linked when go tool nm lists
# it in one of them. Generic shape suffixes are stripped, so an instantiated
# generic counts as its declaration. A function only tests call is dead
# weight or a test knob. Informational, not a gate.
unlinked:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for p in $$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do \
		$(GO) build -gcflags=all=-l -o "$$dir/$${p##*/}" "$$p" || exit 1; \
	done; \
	for b in "$$dir"/*; do $(GO) tool nm "$$b"; done \
		| awk '{ print $$NF }' | sed 's/\[.*\]//' | sort -u > "$$dir/linked.txt"; \
	find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs grep -H '^func ' \
		| sed -E -e 's#^(.*)/[^/]*\.go:func #repro/\1 #' \
			-e 's#^([^ ]+) \(([A-Za-z0-9_]+ )?\*([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*#\1.(*\3).\5#' \
			-e 's#^([^ ]+) \(([A-Za-z0-9_]+ )?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*#\1.\3.\5#' \
			-e 's#^([^ ]+) ([A-Za-z0-9_]+).*#\1.\2#' \
		| grep -v '\.init$$' | sort -u | comm -23 - "$$dir/linked.txt" \
		| awk '{ print "  " $$0; n++ } END { printf "%7d  unlinked\n", n }'

verify: build vet fmt lint test

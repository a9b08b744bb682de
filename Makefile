# Targets mirror .github/workflows/ci.yml job for job so local runs and CI
# stay in lockstep.

GO ?= go

.PHONY: all build lint docs-lint test test-times test-fused race cover fuzz bench serve-demo zoo-demo chaos-demo torture-demo shard-demo ci

all: build

build:
	$(GO) build ./...

# The arm64 pass builds and vets the portable fallbacks the amd64 assembly
# kernels shadow.
lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./...

# Documentation gate, matching the CI "docs-lint" job: every internal
# package needs a package comment, the substrate packages (federated,
# sparse, matrix, parallel) need docs on every exported identifier, serve
# and shard keep their import layering, the set-up packages (graph, sparse,
# partition, datasets, shard) declare no int- or [2]int-keyed map, serve
# names no sync.Mutex or sync.RWMutex (cmd/docslint), ARCHITECTURE.md must
# exist and be linked from README.
docs-lint:
	$(GO) run ./cmd/docslint
	@test -f ARCHITECTURE.md || { echo "ARCHITECTURE.md missing" >&2; exit 1; }
	@grep -q 'ARCHITECTURE.md' README.md || { echo "README.md must link ARCHITECTURE.md" >&2; exit 1; }

test:
	$(GO) test ./...

# The tier-1 budget made visible, matching the CI "test-times" job: the whole
# suite once, uncached and verbose, then its ten slowest top-level tests as
# "seconds status test package". Left out of ci, which already runs the suite.
test-times:
	@$(GO) test -count=1 -v ./... > test-times.txt 2>&1; status=$$?; \
	awk '/^--- (PASS|FAIL)/ { gsub(/[()s]/, "", $$4); sub(/:/, "", $$2); t[n++] = $$4 " " $$2 " " $$3 } \
		/^(ok|FAIL)[ \t]+repro/ { for (i = 0; i < n; i++) print t[i], $$2; n = 0 }' test-times.txt | \
		sort -rn | head -10; \
	exit $$status

# The pinned-bits suites again on a GOAMD64=v3 build, where the compiler may
# contract x*y + z into a fused multiply-add, matching the CI "test" job's
# second step. The AVX edge-tile kernel multiplies and adds separately because
# that is what the portable microKernel computes, and the naive kernels' AVX
# group kernel does what their scalar loops do; those scalar kernels pin every
# product with an explicit float64(a*b) rounding (as matrix.SignSplit does),
# so a toolchain may not fuse them, and this run fails if a kernel loses that
# rounding (or a golden-pinned loop gets fused). internal/bench rides along:
# its paper_tiny.golden pins every table and figure line; so do internal/serve
# and internal/shard, whose TestGoldenServedLogits pins every architecture's
# served logits, and internal/checkpoint, whose export property holds every
# architecture's exported artifact, table section included, byte for byte
# across worker counts; internal/nn's property holds a bound, buffer-owning
# layer to the fresh-output one bit for bit. The set-up path's reference and
# property suites run too: Louvain's visit rule skips the sort by comparing
# floats, and must still match the always-sort fold.
test-fused:
	GOAMD64=v3 $(GO) test ./internal/matrix ./internal/nn ./internal/core ./internal/federated ./internal/fgl ./internal/bench ./internal/serve ./internal/shard ./internal/checkpoint -run 'Golden|Property'
	GOAMD64=v3 $(GO) test ./internal/partition ./internal/datasets ./internal/graph -run 'Reference|Property'

# Race-detector coverage of the concurrent paths (worker pool, graph caches
# filled by several models at once, federated fan-out incl. fault injection,
# the FGL baselines' evaluations on the pool, chaos scenarios, AdaFGL Step-2
# fan-out and the layers' owned buffers under it, parallel kernels, serving
# batcher, model registry swap/acquire, partition determinism across worker
# counts, sharded table fill, telemetry instruments under concurrent
# mutation), matching the CI "race" job.
race:
	$(GO) test -race ./internal/parallel/... ./internal/graph/... ./internal/models/... ./internal/nn/... ./internal/federated/... ./internal/fgl/... ./internal/scenario/... ./internal/core/... ./internal/matrix/... ./internal/sparse/... ./internal/checkpoint/... ./internal/serve/... ./internal/registry/... ./internal/partition/... ./internal/shard/... ./internal/telemetry/...

# Coverage floor on the numeric kernel, training, federation, artifact,
# serving, sharding and telemetry packages, matching the CI "coverage" job:
# internal/matrix + internal/nn + internal/core + internal/sparse +
# internal/federated + internal/scenario + internal/checkpoint +
# internal/serve + internal/registry + internal/partition + internal/shard +
# internal/telemetry must stay at >= 90% statements.
cover:
	@$(GO) test -coverprofile=cover.out ./internal/matrix ./internal/nn ./internal/core ./internal/sparse ./internal/federated ./internal/scenario ./internal/checkpoint ./internal/serve ./internal/registry ./internal/partition ./internal/shard ./internal/telemetry
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "kernel coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t+0 < 90) ? 1 : 0 }' || \
		{ echo "coverage $$total% below the 90% floor" >&2; exit 1; }

# Bounded fuzz pass over the CSR construction, SpMM equivalence, checkpoint
# round-trip, chaos scenario-spec, shard build round-trip, edge-list
# canonicalisation, small dense product and Step-2 sign split (vector ≡
# scalar) targets, matching the CI "fuzz" job (seed corpora in the packages'
# testdata/fuzz directories).
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzCSRFromEdges$$' -fuzztime=15s ./internal/sparse
	$(GO) test -run='^$$' -fuzz='^FuzzSpMMEquivalence$$' -fuzztime=15s ./internal/sparse
	$(GO) test -run='^$$' -fuzz='^FuzzCheckpointRoundTrip$$' -fuzztime=15s ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz='^FuzzScenarioConfig$$' -fuzztime=15s ./internal/scenario
	$(GO) test -run='^$$' -fuzz='^FuzzShardRoundTrip$$' -fuzztime=15s ./internal/shard
	$(GO) test -run='^$$' -fuzz='^FuzzCanonicalize$$' -fuzztime=15s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzSmallGEMMEquivalence$$' -fuzztime=15s ./internal/matrix
	$(GO) test -run='^$$' -fuzz='^FuzzSignSplitEquivalence$$' -fuzztime=15s ./internal/matrix

# Smoke bench: every benchmark once, output preserved as the BENCH artifact
# (bench-smoke.txt). File-then-cat instead of tee so a failing benchmark
# fails the target.
bench:
	@$(GO) test -bench=. -benchtime=1x -run='^$$' ./... > bench-smoke.txt 2>&1; \
	status=$$?; cat bench-smoke.txt; exit $$status

# Field check of the serving subsystem: train at quickstart scale,
# checkpoint, rebuild the server from the file and fire 1000 concurrent HTTP
# queries, each cross-checked bit-for-bit against the in-process API.
serve-demo:
	$(GO) run ./examples/serve-demo

# Field check of the multi-model registry: train a version line plus AdaFGL,
# scan the artifacts into the registry, tour the v1 API, hot-swap the active
# version under concurrent load (bit-exact answers enforced) and run a live
# baseline-vs-AdaFGL A/B split.
zoo-demo:
	$(GO) run ./examples/model-zoo

# Field check of the fault-injection layer: one failure scenario from the
# chaos registry run with AdaFGL and a FedGCN reference, under FedAvg and a
# robust aggregator, against the fault-free baseline.
chaos-demo:
	$(GO) run ./examples/chaos

# Field check of the serving resilience layer: the four torture scenarios
# (overload, slowmodel, panic, corrupt) against a live loopback HTTP server,
# each enforcing the no-drop / exactly-once / Retry-After / bit-identity /
# post-storm-recovery invariants (internal/registry's TestTorture, one
# subtest and one outcome line per scenario).
torture-demo:
	$(GO) test -count=1 -run '^TestTorture$$' -v ./internal/registry

# Field check of the sharding layer at full scale: stream a million-node
# graph into 1..8 shards, proving per-shard memory and fleet propagation
# time scale ~linearly with the shard count and that a server filled from 8
# shards answers bit-identically to one filled from 1 (overlap-scale
# cross-check).
shard-demo:
	$(GO) run ./cmd/adafgl-bench -exp shard

ci: build lint docs-lint test test-fused race cover fuzz bench

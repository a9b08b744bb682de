// The race detector instruments every memory access and synchronisation,
// which taxes the routed path's atomics and locks far more than the direct
// table gather (≈ 25% at this workload), so the bound below says nothing
// about the detector's builds; routed ≡ direct bit-identity under -race is
// TestSwapUnderLoad's ground truth.

//go:build !race

package registry

import (
	"sort"
	"testing"
	"time"

	"repro/internal/serve"
)

// routeReqs and routeReqNodes shape the routing-overhead workload: routeReqs
// sequential predict calls of routeReqNodes nodes each, per path.
const (
	routeReqs     = 128
	routeReqNodes = 64
)

// routeOverheadLimit is the acceptance bound on the registry's routing tax:
// Registry.Predict (acquire, A/B check, per-model accounting) over a direct
// serve.Server.Predict on the same workload. The direct path is a 64-row
// gather from the server's logits table (≈ 12 µs a request), so the
// registry's ≈ 1 µs reads as 7–9%.
const routeOverheadLimit = 20.0 // percent

// routeReps and routeChunk shape the overhead measurement
// (interleavedRatio): routeReps passes over the stream, the direct and routed
// paths answering every chunk of routeChunk requests — about a tenth of a
// millisecond — back to back. With 320 timed chunks per path, a burst from
// whatever else shares the machine (other packages' tests under
// `go test ./...`) spoils single chunks, not the figure.
const (
	routeReps  = 20
	routeChunk = 8
)

// routeTimingAttempts is how often a reading over the limit is re-measured
// before the routing tax is declared over budget: the true tax sits near half
// the limit, a reading's spread is a few points, and a real regression stays
// over the limit on every attempt.
const routeTimingAttempts = 3

// routeBatch builds the node set of request i over an n-node graph.
func routeBatch(i, n int) []int {
	nodes := make([]int, routeReqNodes)
	for j := range nodes {
		nodes[j] = ((i*routeReqNodes + j) * 13) % n
	}
	return nodes
}

// TestRoutingOverhead holds Registry.Predict to a directly held server of the
// same artifact: every answer of the request stream bit-identical, and the
// routed path at most routeOverheadLimit percent slower, measured as the
// ratio of lower-quartile chunk times over interleaved chunks.
func TestRoutingOverhead(t *testing.T) {
	r := New(Options{Serve: serve.Options{MaxBatch: routeReqNodes, MaxWait: 0, Seed: 1}})
	defer r.Close()
	if _, err := r.LoadDir(zooDir(t, "m@1")); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("m")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	srv := h.Server()
	n := srv.Nodes()

	direct := func(i int) ([]serve.Prediction, error) { return srv.Predict(routeBatch(i, n)) }
	routed := func(i int) ([]serve.Prediction, error) { return r.Predict("m", routeBatch(i, n)) }

	// One pass over the stream warms both paths and cross-checks every answer.
	for i := 0; i < routeReqs; i++ {
		dp, err := direct(i)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := routed(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(dp) != len(rp) {
			t.Fatalf("request %d: routed answered %d nodes, direct %d", i, len(rp), len(dp))
		}
		for j := range dp {
			if !samePred(dp[j], rp[j]) {
				t.Fatalf("request %d position %d: routed %+v differs from direct %+v", i, j, rp[j], dp[j])
			}
		}
	}

	chunk := func(viaRegistry bool, from, k int) (time.Duration, error) {
		predict := direct
		if viaRegistry {
			predict = routed
		}
		start := time.Now()
		for i := from; i < from+k; i++ {
			if _, err := predict(i); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	var pct float64
	var perDirect, perRouted time.Duration
	for attempt := 0; attempt < routeTimingAttempts; attempt++ {
		ratio, total, err := interleavedRatio(routeReps, routeReqs, routeChunk, chunk)
		if err != nil {
			t.Fatal(err)
		}
		perDirect, perRouted = total[false]/(routeReps*routeReqs), total[true]/(routeReps*routeReqs)
		if pct = 100 * (ratio - 1); pct <= routeOverheadLimit {
			break
		}
	}
	if pct > routeOverheadLimit {
		t.Fatalf("routing overhead %.1f%% exceeds %.0f%% on every one of %d attempts (mean direct %v, routed %v per %d-node request)",
			pct, routeOverheadLimit, routeTimingAttempts, perDirect, perRouted, routeReqNodes)
	}
	t.Logf("direct %v/req vs routed %v/req -> overhead %.1f%% (limit %.0f%%)",
		perDirect.Round(time.Microsecond), perRouted.Round(time.Microsecond), pct, routeOverheadLimit)
}

// interleavedRatio is internal/bench's paired A-vs-B measurement, copied
// because a package's tests cannot import a package that imports it. The
// workload is units operations long; run(alt, from, k) times operations
// [from, from+k) under the baseline (alt false) or the alternative (alt
// true). On each of reps passes the two sides answer every chunk of chunk
// operations back to back, order flipping per chunk and per pass. What else
// runs on the machine only ever lengthens a chunk, so the lower quartile of a
// side's per-operation chunk times estimates its undisturbed cost, and the
// figure is the ratio of the two lower quartiles. total holds the time spent
// on each side over all passes.
func interleavedRatio(reps, units, chunk int, run func(alt bool, from, k int) (time.Duration, error)) (ratio float64, total map[bool]time.Duration, err error) {
	perOp := map[bool][]float64{}
	total = map[bool]time.Duration{}
	for rep := 0; rep < reps; rep++ {
		for q := 0; q < units; q += chunk {
			k := min(chunk, units-q)
			order := []bool{false, true}
			if (rep+q/chunk)%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, alt := range order {
				d, err := run(alt, q, k)
				if err != nil {
					return 0, nil, err
				}
				perOp[alt] = append(perOp[alt], d.Seconds()/float64(k))
				total[alt] += d
			}
		}
	}
	lowerQuartile := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/4]
	}
	return lowerQuartile(perOp[true]) / lowerQuartile(perOp[false]), total, nil
}

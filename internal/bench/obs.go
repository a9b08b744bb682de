package bench

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/federated"
	"repro/internal/models"
	"repro/internal/parallel"
	// The registry's families register when the package initialises, and no
	// experiment here calls it: linked only so that obsCoreFamilies' scrape
	// covers the fleet layer a serving binary carries.
	_ "repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// obsReps is how many passes over the request stream the overhead
// measurement makes; every chunk of every pass times both modes back to back
// (interleavedRatio).
const obsReps = 7

// obsQueries is the sequential full-window request count per repetition:
// each request queries DefaultMaxBatch nodes, so every request is exactly
// one batch window — the unit of engine work the serving layer is built
// around, and the scale instrumentation cost must be judged against.
const obsQueries = 800

// obsChunk is how many windows each timed slice runs before the modes swap;
// at roughly a millisecond per slice, noise bursts span both modes of a pair
// instead of skewing one.
const obsChunk = 25

// obsMaxOverheadPct is the acceptance ceiling on hot-path instrumentation
// overhead (a <= 3% budget).
const obsMaxOverheadPct = 3.0

// obsCoreFamilies are the metric families every instrumented layer must
// expose; their presence in one scrape proves the registrations are linked.
var obsCoreFamilies = []string{
	"adafgl_serve_requests_total",
	"adafgl_serve_request_latency_seconds",
	"adafgl_registry_cold_starts_total",
	"adafgl_shard_exchange_total",
	"adafgl_federated_rounds_total",
	"adafgl_parallel_pool_tasks_total",
	"adafgl_graph_cache_total",
	"adafgl_matrix_gemm_total",
	"adafgl_matrix_gemm_tiles_total",
}

// Obs proves the telemetry layer's two contracts. Correctness: with metrics
// and tracing fully enabled, served predictions and a short federated
// training run are bit-identical to a telemetry-disabled run, and the
// Prometheus exposition is structurally valid with every layer's core
// families present. Cost: the enabled instruments add at most
// obsMaxOverheadPct to the hot serve path, measured as the ratio of the two
// modes' lower-quartile chunk times (interleavedRatio) over storms of
// sequential full-window requests on an SGC server (a window is a 64-row
// gather from the server's logits table — nothing graph-sized to hide
// instrument cost behind).
func Obs(s Scale) ([]string, error) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	if s.Factor <= 0 {
		s.Factor = 0.5 // quickstart scale
	}
	ck, err := serveCheckpoint("SGC", s)
	if err != nil {
		return nil, err
	}

	// Bit-identity, serving: the same concurrent load with telemetry on and
	// off must answer every node with bitwise-equal logits.
	opt := serve.Options{MaxBatch: serveConc, MaxWait: 2 * time.Millisecond, Seed: s.Seed}
	onPreds, err := serveLoad(ck, opt)
	if err != nil {
		return nil, err
	}
	telemetry.SetEnabled(false)
	offPreds, err := serveLoad(ck, opt)
	telemetry.SetEnabled(true)
	if err != nil {
		return nil, err
	}
	if err := comparePredSlices(onPreds, offPreds); err != nil {
		return nil, fmt.Errorf("bench: obs: serve telemetry on vs off: %w", err)
	}

	// Bit-identity, training: a short federated run repeated under both
	// telemetry states must land on bitwise-equal global parameters.
	onParams, err := obsFedRun(s, true)
	if err != nil {
		return nil, err
	}
	offParams, err := obsFedRun(s, false)
	if err != nil {
		return nil, err
	}
	if len(onParams) != len(offParams) {
		return nil, fmt.Errorf("bench: obs: federated param dims differ: %d vs %d", len(onParams), len(offParams))
	}
	for i := range onParams {
		if onParams[i] != offParams[i] {
			return nil, fmt.Errorf("bench: obs: federated param %d differs bitwise: %v vs %v", i, onParams[i], offParams[i])
		}
	}

	// Overhead: sequential full-window requests against one live server,
	// alternating modes within every repetition so drift hits both equally.
	// The engine runs single-worker for the measurement: pool scheduling
	// noise would otherwise dwarf the nanosecond-scale instrument costs,
	// and the per-request telemetry path is identical for every worker
	// count.
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	srv, err := serve.New(ck, serve.Options{Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	span := serve.DefaultMaxBatch
	if span > srv.Nodes() {
		span = srv.Nodes()
	}
	nodes := make([]int, span)
	chunk := func(on bool, q0, k int) (time.Duration, error) {
		telemetry.SetEnabled(on)
		defer telemetry.SetEnabled(true)
		start := time.Now()
		for q := q0; q < q0+k; q++ {
			for i := range nodes {
				nodes[i] = (q*span + i) % srv.Nodes()
			}
			if _, err := srv.Predict(nodes); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	// One discarded warmup pass per mode heats caches, page tables and CPU
	// frequency before anything is timed — cold first invocations otherwise
	// land in the measurement. Then the interleaved measurement, in
	// millisecond-scale chunks of obsChunk windows.
	for _, on := range []bool{false, true} {
		if _, err := chunk(on, 0, obsQueries); err != nil {
			return nil, err
		}
	}
	ratio, total, err := interleavedRatio(obsReps, obsQueries, obsChunk, chunk)
	if err != nil {
		return nil, err
	}
	overheadPct := 100 * (ratio - 1)
	chunks := obsReps * ((obsQueries + obsChunk - 1) / obsChunk)
	if overheadPct > obsMaxOverheadPct {
		return nil, fmt.Errorf("bench: obs: telemetry overhead %.2f%% exceeds %.1f%% budget (lower-quartile chunk time of %d interleaved chunks per mode; total on %v vs off %v)",
			overheadPct, obsMaxOverheadPct, chunks, total[true], total[false])
	}

	// Exposition: one scrape of the process registry must be structurally
	// valid and cover every instrumented layer.
	var buf bytes.Buffer
	if err := telemetry.Default().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	if err := telemetry.CheckExposition(buf.Bytes()); err != nil {
		return nil, fmt.Errorf("bench: obs: exposition invalid: %w", err)
	}
	for _, famName := range obsCoreFamilies {
		if !telemetry.HasFamily(buf.Bytes(), famName) {
			return nil, fmt.Errorf("bench: obs: exposition missing family %s", famName)
		}
	}
	seen, kept := telemetry.DefaultTracer().Stats()

	return []string{
		fmt.Sprintf("Observability: telemetry on vs off, SGC nodes=%d, %d sequential %d-node windows x %d passes",
			ck.Graph.N, obsQueries, span, obsReps),
		fmt.Sprintf("serve  preds bit-identical over %d nodes; federated params bit-identical over dim %d",
			len(onPreds), len(onParams)),
		fmt.Sprintf("hot path  off=%-8v on=%-8v overhead %+.2f%% lower-quartile chunk time of %d interleaved chunks per mode (budget %.1f%%)",
			total[false].Round(time.Microsecond), total[true].Round(time.Microsecond), overheadPct, chunks, obsMaxOverheadPct),
		fmt.Sprintf("exposition %d bytes valid; %d core families present; tracer %d/%d spans kept",
			buf.Len(), len(obsCoreFamilies), kept, seen),
	}, nil
}

// interleavedRatio is the measurement a small A-vs-B effect needs on a noisy
// machine. The workload is units operations long; run(alt, from, k) times
// operations [from, from+k) under the baseline (alt false) or the
// alternative (alt true). On each of reps passes the two sides answer every
// chunk of chunk operations back to back, order flipping per chunk and per
// pass, so both sample the same stretches of machine time and neither is
// always the one that finds the caches warm. What else runs on the machine
// only ever lengthens a chunk, so the lower quartile of a side's
// per-operation chunk times estimates its undisturbed cost, and the figure
// is the ratio of the two lower quartiles. Measured on the 2-core reference
// VM (raw chunk times replayed through both estimators): the obs overhead
// repeats within ±1 point where the median of per-pass on/off ratios spread
// ±3, and the registry routing overhead at its 20 passes stays within −1…+7
// points idle, with one core taken and with both, where per-pass medians and
// best-of-attempts totals spread beyond ±15 (internal/registry's
// TestRoutingOverhead measures that one with a copy of this function). total
// holds the time spent on each side over all passes.
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

// obsFedRun executes the short training run of the bit-identity pair under
// the given telemetry state and returns the final global parameters.
func obsFedRun(s Scale, enabled bool) ([]float64, error) {
	telemetry.SetEnabled(enabled)
	defer telemetry.SetEnabled(true)
	s.Clients = 5
	_, subs, err := split("Cora", Community, nil, s, s.Seed)
	if err != nil {
		return nil, err
	}
	clients := federated.BuildClients(subs, models.Registry["SGC"], s.cfg(), s.Seed)
	opt := s.fedOpts(s.Seed)
	if opt.Rounds > 5 {
		opt.Rounds = 5 // the pair only needs enough rounds to exercise the loop
	}
	res, err := federated.Run(clients, s.Seed+1, opt)
	if err != nil {
		return nil, err
	}
	return res.GlobalParams, nil
}

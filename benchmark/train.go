package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// localEpochs is the number of local epochs per federated round.
const localEpochs = 3

// trainWorkload is one of the two training workloads: Step 1 alone
// (federated.Run over GCN clients) or the whole AdaFGL pipeline.
type trainWorkload struct {
	dataset string
	factor  float64
	clients int
	rounds  int
	ada     bool
	epochs  int // Step-2 epochs, AdaFGL only
}

// modelConfig is the architecture configuration every workload trains and
// serves with: the paper's defaults at hidden width 32 without dropout, as
// the repository's own experiment harness uses.
func modelConfig() models.Config {
	cfg := models.DefaultConfig()
	cfg.Hidden = 32
	cfg.Dropout = 0
	return cfg
}

func (w trainWorkload) fedOptions(seed int64) federated.Options {
	opt := federated.DefaultOptions()
	opt.Rounds = w.rounds
	opt.LocalEpochs = localEpochs
	opt.Seed = subSeed(seed, "train")
	return opt
}

// trainInputs is what set-up hands an iteration: fresh subgraphs and, for
// Step 1 alone, fresh clients. Training mutates both (model parameters,
// cached plans), so every iteration gets its own.
type trainInputs struct {
	subs    []*graph.Graph
	clients []*federated.Client
}

// setup is the program's own set-up: generate the dataset, split it, and
// build the clients (AdaFGL.Run builds its own). It returns the inputs and
// how long the three calls took.
func (w trainWorkload) setup(seed int64, rec *recorder, id int) (trainInputs, time.Duration, error) {
	spec, err := datasets.ByName(w.dataset)
	if err != nil {
		return trainInputs{}, 0, err
	}
	var in trainInputs
	var g *graph.Graph
	total := rec.timed("datasets.generate", -1, id, func() {
		g = datasets.GenerateScaled(spec, w.factor, subSeed(seed, "dataset"))
	})
	total += rec.timed("partition.split", -1, id, func() {
		rng := rand.New(rand.NewSource(subSeed(seed, "split")))
		if w.ada {
			in.subs = partition.StructureNonIIDSplit(g, w.clients, partition.DefaultNonIID(), rng).Subgraphs
		} else {
			in.subs = partition.CommunitySplit(g, w.clients, rng).Subgraphs
		}
	})
	if !w.ada {
		total += rec.timed("federated.build_clients", -1, id, func() {
			in.clients = federated.BuildClients(in.subs, models.Registry["GCN"], modelConfig(), w.fedOptions(seed).Seed)
		})
	}
	return in, total, nil
}

// adafgl returns the pipeline at the paper's defaults with the given Step-2
// epoch budget.
func adafgl(epochs int) *core.AdaFGL {
	a := core.New()
	a.Opt.Epochs = epochs
	return a
}

// iterate runs one pipeline iteration on fresh inputs.
func (w trainWorkload) iterate(in trainInputs, seed int64) (*federated.Result, error) {
	opt := w.fedOptions(seed)
	if w.ada {
		return adafgl(w.epochs).Run(in.subs, modelConfig(), opt)
	}
	return federated.Run(in.clients, opt.Seed+1, opt)
}

// digest is the SHA-256 over the bits of everything an iteration produces
// that the determinism contract covers.
func digest(res *federated.Result) [32]byte {
	h := sha256.New()
	var b [8]byte
	add := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range res.GlobalParams {
		add(v)
	}
	add(res.TestAcc)
	for _, v := range res.PerClient {
		add(v)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// scrapeLocal reads the process-wide telemetry registry the way GET
// /v1/metrics would, for workloads that have no HTTP surface.
func scrapeLocal() scrape {
	var buf bytes.Buffer
	if err := telemetry.Default().WritePrometheus(&buf); err != nil {
		return scrape{}
	}
	return parseProm(buf.Bytes())
}

// runTrain runs a training workload: the end-to-end pass with tracing off,
// then, when asked, the traced pass at one worker.
func runTrain(w trainWorkload, c config) (*outcome, error) {
	out := newOutcome()
	seconds, minIters := c.timedSeconds(), c.sizes.minIters
	if c.trace == 1 {
		minIters = 2
	}

	var setups, iters []float64
	var first *federated.Result
	var firstDigest [32]byte
	var busy time.Duration
	before := scrapeLocal()
	for n := 0; n < minIters || busy.Seconds() < seconds; n++ {
		in, d, err := w.setup(c.seed, nil, n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		start := time.Now()
		res, err := w.iterate(in, c.seed)
		took := time.Since(start)
		busy += took
		out.attempted++
		switch {
		case err != nil:
			out.fail("iteration %d: %v", n, err)
		case first == nil:
			first, firstDigest = res, digest(res)
			iters = append(iters, took.Seconds())
		case digest(res) != firstDigest:
			out.fail("iteration %d: result digest differs from iteration 0", n)
		default:
			iters = append(iters, took.Seconds())
		}
	}
	after := scrapeLocal()
	if first == nil {
		return out, fmt.Errorf("benchmark: no iteration succeeded")
	}
	// Set-up is cheap next to an iteration; sample it a few more times so
	// its median rests on more than a handful of values.
	for extra := time.Duration(0); len(setups) < 15 && extra < time.Second; {
		_, d, err := w.setup(c.seed, nil, len(setups))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		extra += d
	}

	ms := make([]float64, len(iters))
	for i, d := range iters {
		ms[i] = 1e3 * d
	}
	out.putLatency(sorted(ms))
	out.e2e.put("setup_s", median(setups), len(setups))
	out.e2e.put("rps", float64(len(iters))/sum(iters), len(iters))
	out.e2e.put("test_acc", first.TestAcc, 0)
	out.e2e.put("peak_rss_mb", peakRSSMB(), 0)
	if c.trace == 0 {
		return out, nil
	}

	done := float64(out.attempted)
	out.layer.put("federated.rounds", delta(before, after, "adafgl_federated_rounds_total", "")/done, 0)
	out.layer.put("federated.bytes_per_round", float64(first.BytesPerRound), 0)
	out.layer.put("parallel.pool_tasks", delta(before, after, "adafgl_parallel_pool_tasks_total", "")/done, 0)
	out.layer.put("parallel.inline_tasks", delta(before, after, "adafgl_parallel_inline_tasks_total", "")/done, 0)
	out.layer.put("parallel.workers", float64(parallel.Workers()), 0)
	out.layer.put("bench.iter_s", median(iters), len(iters))

	out.rec = newRecorder()
	prev := parallel.SetWorkers(1) // serial, so that replayed parts sum to the whole
	defer parallel.SetWorkers(prev)
	var serial float64
	var err error
	if w.ada {
		serial, err = w.traceAda(c, out, firstDigest)
	} else {
		serial, err = w.traceFed(c, out, firstDigest)
	}
	if err != nil {
		return nil, err
	}
	out.layer.put("parallel.speedup", serial/median(iters), 1)
	out.putSpanMedian("datasets.generate_s", "datasets.generate", 1)
	out.putSpanMedian("partition.split_s", "partition.split", 1)
	out.putSpanMedian("federated.build_clients_s", "federated.build_clients", 1)
	fleet, err := w.trainedFleet(c, first)
	if err != nil {
		return nil, err
	}
	out.layer.put("sparse.spmm_run_s", w.spmmRunSeconds(fleet), len(fleet))
	largest, middle := fleet[len(fleet)-1], fleet[len(fleet)/2]
	kernelLayersAt(out, kernelShapes{g: largest.Graph, model: middle.Model, epoch: middle.Graph, dense: w.ada}, c)
	return out, nil
}

// trainedFleet rebuilds the fleet once more, loads the trained global
// parameters and orders it by size: the largest and the median-size client
// are the shapes the kernel-level layer metrics are taken at.
func (w trainWorkload) trainedFleet(c config, res *federated.Result) ([]*federated.Client, error) {
	in, _, err := w.setup(c.seed, nil, 0)
	if err != nil {
		return nil, err
	}
	fleet := in.clients
	if fleet == nil {
		fleet = federated.BuildClients(in.subs, models.Registry["GCN"], modelConfig(), w.fedOptions(c.seed).Seed)
	}
	sort.SliceStable(fleet, func(i, j int) bool { return fleet[i].Graph.N < fleet[j].Graph.N })
	for _, cl := range fleet {
		if err := nn.Unflatten(cl.Model, res.GlobalParams); err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

// spmmRunSeconds is the time one Step-1 run spends in sparse products at one
// worker, replayed standalone: every client's plan product is timed at the
// three widths the GCN multiplies at (features, hidden, hidden — forward
// twice, backward once), and weighted by how often the run makes it: three
// products per local epoch and the two forward ones per evaluation.
func (w trainWorkload) spmmRunSeconds(fleet []*federated.Client) float64 {
	hidden := modelConfig().Hidden
	trains := float64(localEpochs * w.rounds)
	evals := float64(w.rounds + 1)
	var total float64
	for _, cl := range fleet {
		plan := cl.Graph.NormAdjPlan(sparse.NormSym)
		wide := median(repeat(3, 0, func() { plan.MulDense(cl.Graph.X) }))
		narrow := median(repeat(3, 0, func() { plan.MulDense(matrix.New(cl.Graph.N, hidden)) }))
		total += trains*(wide+2*narrow) + evals*(wide+narrow)
	}
	return total
}

// traceFed traces Step 1 at one worker: federated.Run timed whole, then its
// parts replayed on identically seeded clients through the public surface
// (Client.TrainLocal, Client.TestAccuracy, nn.Flatten/Unflatten), following
// the same participant order and the same FedAvg arithmetic so the replay
// ends on the same global parameters, bit for bit. It returns the serial
// wall time of the whole run.
func (w trainWorkload) traceFed(c config, out *outcome, want [32]byte) (float64, error) {
	rec := out.rec
	opt := w.fedOptions(c.seed)

	in, _, err := w.setup(c.seed, rec, 0)
	if err != nil {
		return 0, err
	}
	var res *federated.Result
	whole := rec.begin("federated.run", -1, 0)
	res, err = federated.Run(in.clients, opt.Seed+1, opt)
	rec.end(whole)
	out.attempted++
	if err != nil || digest(res) != want {
		out.fail("traced workers=1 run does not reproduce the end-to-end digest (err=%v)", err)
	}

	in, _, err = w.setup(c.seed, rec, 1)
	if err != nil {
		return 0, err
	}
	clients := in.clients
	part := func(name string, fn func()) { rec.timed(name, whole, 1, fn) }
	var global []float64
	part("federated.transport", func() { global = nn.Flatten(clients[0].Model) })
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	locals := make([][]float64, len(clients))
	weights := make([]float64, len(clients))
	load := func(cl *federated.Client) {
		part("federated.transport", func() {
			if err := nn.Unflatten(cl.Model, global); err != nil {
				out.fail("replay: %v", err)
			}
		})
	}
	evalAll := func() {
		for _, cl := range clients {
			load(cl)
			part("federated.eval", func() { cl.TestAccuracy() })
		}
	}
	for round := 0; round < opt.Rounds; round++ {
		for slot, ci := range rng.Perm(len(clients)) {
			cl := clients[ci]
			load(cl)
			part("federated.local_train", func() { cl.TrainLocal(opt.LocalEpochs) })
			part("federated.transport", func() { locals[slot] = nn.Flatten(cl.Model) })
			weights[slot] = math.Max(float64(cl.TrainSize()), 1)
		}
		part("federated.aggregate", func() { global = fedAvg(locals, weights) })
		evalAll()
	}
	evalAll() // the final evaluation federated.Run ends with
	out.attempted++
	if !sameBits(global, res.GlobalParams) {
		out.fail("replayed rounds end on different global parameters than federated.Run")
	}

	// The whole once more, after the parts: the machine's speed drifts by
	// several percent within seconds, and the mean of a whole before and a
	// whole after the replay cancels the drift a single one would keep.
	in, _, err = w.setup(c.seed, nil, 2)
	if err != nil {
		return 0, err
	}
	rec.timed("federated.run", -1, 2, func() { _, err = federated.Run(in.clients, opt.Seed+1, opt) })
	if err != nil {
		return 0, err
	}

	run := rec.total("federated.run") / 2
	parts := rec.total("federated.local_train") + rec.total("federated.eval") + rec.total("federated.transport")
	out.layer.put("federated.run_s", run, 2)
	out.layer.put("federated.local_train_s", rec.total("federated.local_train"), len(rec.durations("federated.local_train")))
	out.layer.put("federated.eval_s", rec.total("federated.eval"), len(rec.durations("federated.eval")))
	out.layer.put("federated.transport_s", rec.total("federated.transport"), len(rec.durations("federated.transport")))
	out.layer.put("federated.aggregate_s", rec.total("federated.aggregate"), opt.Rounds)
	out.layer.put("federated.self_s", run-parts, 1)
	out.layer.put("trace.sum_error_share", math.Abs(parts+rec.total("federated.aggregate")-run)/run, 1)
	return run, nil
}

// fedAvg is the data-size-weighted mean federated.Run aggregates with, in
// the same operation order, so a replay reproduces its bits.
func fedAvg(updates [][]float64, weights []float64) []float64 {
	agg := make([]float64, len(updates[0]))
	var total float64
	for u, params := range updates {
		for i, v := range params {
			agg[i] += weights[u] * v
		}
		total += weights[u]
	}
	for i := range agg {
		agg[i] /= total
	}
	return agg
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// traceAda traces the AdaFGL pipeline at one worker. AdaFGL.Run is timed
// whole (A). Step 1 is replayed through federated.BuildClients and
// federated.Run (B) and checked to end on the same global parameters, so
// Step 2 is A minus B. The public parts of Step 2's per-client preparation —
// the extractor forward, OptimizedPropagation, the K smoothing products and
// HCS — are replayed per client (C). A second whole run with zero Step-2
// epochs (D) separates preparation from training: the training loop itself
// is private to core, so its time is A minus D, and the budget check is
// that B plus C accounts for D.
func (w trainWorkload) traceAda(c config, out *outcome, want [32]byte) (float64, error) {
	rec := out.rec
	opt := w.fedOptions(c.seed)
	cfg := modelConfig()

	in, _, err := w.setup(c.seed, rec, 0)
	if err != nil {
		return 0, err
	}
	var res *federated.Result
	whole := rec.begin("core.run", -1, 0)
	res, err = adafgl(w.epochs).Run(in.subs, cfg, opt)
	rec.end(whole)
	out.attempted++
	if err != nil || digest(res) != want {
		out.fail("traced workers=1 run does not reproduce the end-to-end digest (err=%v)", err)
		return rec.total("core.run"), nil
	}

	in, _, err = w.setup(c.seed, rec, 1)
	if err != nil {
		return 0, err
	}
	var clients []*federated.Client
	rec.timed("federated.build_clients", whole, 1, func() {
		clients = federated.BuildClients(in.subs, models.Registry["GCN"], cfg, opt.Seed)
	})
	var step1 *federated.Result
	rec.timed("federated.run", whole, 1, func() { step1, err = federated.Run(clients, opt.Seed+1, opt) })
	out.attempted++
	if err != nil || !sameBits(step1.GlobalParams, res.GlobalParams) {
		out.fail("replayed Step 1 ends on different global parameters than AdaFGL.Run (err=%v)", err)
		return rec.total("core.run"), nil
	}

	o := core.DefaultOptions()
	for ci, cl := range clients {
		g := cl.Graph
		part := func(name string, fn func()) { rec.timed(name, whole, ci, fn) }
		var phat, ptilde *matrix.Dense
		part("federated.transport", func() {
			if err := nn.Unflatten(cl.Model, step1.GlobalParams); err != nil {
				out.fail("replay: %v", err)
			}
		})
		part("models.forward", func() { phat = matrix.SoftmaxRows(cl.Model.Logits(false)) })
		part("core.optimized_propagation", func() { ptilde = core.OptimizedPropagation(g, phat, o.Alpha) })
		part("core.smoothing", func() {
			cur := g.X
			for k := 0; k < o.K; k++ {
				cur = matrix.Mul(ptilde, cur)
			}
		})
		rng := rand.New(rand.NewSource(opt.Seed*7919 + int64(ci)))
		part("core.hcs", func() { core.HCS(g, o.Kappa, o.LPSteps, o.MaskProb, rng) })
		// Label propagation runs inside HCS; timed alone it is information,
		// not a further part of the whole.
		rec.timed("core.lp", -1, ci, func() { core.NonParamLP(g, g.TrainMask, o.Kappa, o.LPSteps) })
	}

	in, _, err = w.setup(c.seed, nil, 2)
	if err != nil {
		return 0, err
	}
	rec.timed("core.run_prepare_only", -1, 2, func() { _, err = adafgl(0).Run(in.subs, cfg, opt) })
	if err != nil {
		return 0, err
	}

	run := rec.total("core.run")
	fedRun, build := rec.total("federated.run"), rec.total("federated.build_clients")
	prepare := rec.total("federated.transport") + rec.total("models.forward") +
		rec.total("core.optimized_propagation") + rec.total("core.smoothing") + rec.total("core.hcs")
	prepareOnly := rec.total("core.run_prepare_only")
	out.layer.put("core.run_s", run, 1)
	out.layer.put("federated.run_s", fedRun, 1)
	out.layer.put("core.step2_s", run-fedRun-build, 1)
	out.layer.put("core.optimized_propagation_s", rec.total("core.optimized_propagation"), len(clients))
	out.layer.put("core.smoothing_s", rec.total("core.smoothing"), len(clients))
	out.layer.put("core.hcs_s", rec.total("core.hcs"), len(clients))
	out.layer.put("core.lp_s", rec.total("core.lp"), len(clients))
	out.layer.put("core.step2_train_self_s", run-prepareOnly, 1)
	last := step1.RoundAcc[len(step1.RoundAcc)-1]
	out.layer.put("core.step2_gain_pts", 100*(res.TestAcc-last), 0)
	out.layer.put("trace.sum_error_share", math.Abs(build+fedRun+prepare-prepareOnly)/run, 1)
	return run, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

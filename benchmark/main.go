// Command benchmark is the repository's benchmark. It runs five named
// workloads — two training pipelines and three serving traffic mixes — checks
// that their outputs are correct, and prints every metric BENCHMARK.json
// declares by name with its unit and sample count. End-to-end metrics come
// from a pass with tracing off; per-layer metrics come from a separate
// traced pass that times calls into each layer's public functions from this
// package's own files. See README.md in this directory.
//
//	go run ./benchmark                      all workloads, both passes
//	go run ./benchmark -workload serve-sgc  one workload
//	go run ./benchmark -aa 3                three back-to-back sets, spread vs bounds
//
// The driver calls it as
// `go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
// and reads the JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"time"
)

// sizes are the workload dimensions: the measured scale, or the toy scale
// the tests run every code path at.
type sizes struct {
	fedFactor, adaFactor, serveFactor  float64
	fedRounds, adaRounds, adaEpochs    int
	fixtureRounds, clients             int
	minIters, setupRepeats             int
	tracedRequests, swapEveryTraced    int
	warmup, swapEvery                  time.Duration
	traceBudget, kernelBudget, seconds time.Duration
}

// fullSizes are the sizes every published number is measured at. An
// iteration of either training workload takes about 2.5 s on the 2-core
// reference machine; a serving run answers a few thousand requests.
var fullSizes = sizes{
	fedFactor: 8, fedRounds: 10, // Physics x8: 17.6k nodes, average degree 14
	adaFactor: 2, adaRounds: 30, adaEpochs: 60, // Cora x2: 2.8k nodes, paper-default Step 2
	serveFactor: 4, fixtureRounds: 10, // Cora x4: 5.6k nodes
	clients: 10, minIters: 3, setupRepeats: 15,
	tracedRequests: 500, swapEveryTraced: 50,
	warmup: 2 * time.Second, swapEvery: time.Second,
	traceBudget: 5 * time.Second, kernelBudget: 100 * time.Millisecond, seconds: 10 * time.Second,
}

// quickSizes exercise every code path in well under a second per workload.
// Numbers at this scale mean nothing and are never published.
var quickSizes = sizes{
	fedFactor: 0.1, fedRounds: 2, adaFactor: 0.1, adaRounds: 2, adaEpochs: 2,
	serveFactor: 0.15, fixtureRounds: 2, clients: 3, minIters: 2, setupRepeats: 2,
	tracedRequests: 20, swapEveryTraced: 6,
	warmup: 20 * time.Millisecond, swapEvery: 40 * time.Millisecond,
	traceBudget: 300 * time.Millisecond, kernelBudget: time.Millisecond, seconds: 150 * time.Millisecond,
}

// budgetLimit is the most the traced stages of a workload may miss its whole
// by (trace.sum_error_share) before the all-workloads command fails: a larger
// gap means a stage the trace does not account for.
const budgetLimit = 0.05

// config is what one workload run is given.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed phase
	trace    int     // 0 end-to-end only, 1 per-layer, 2 both
	quick    bool
	sizes    sizes
	outDir   string
}

// timedSeconds is the length of the untraced timed phase. The per-layer run
// (-trace 1) keeps a short one, for its counts and the bench.* baseline, and
// spends the rest of its time on the traced pass.
func (c config) timedSeconds() float64 {
	if c.trace == 1 {
		return 0.35 * c.seconds
	}
	return c.seconds
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e, layer        metricSet
	rec               *recorder
	tailPercentile    float64 // which percentile lat_p95_ms is on this workload
	tailSupport       int     // samples beyond it
}

func newOutcome() *outcome { return &outcome{e2e: metricSet{}, layer: metricSet{}} }

// fail counts one failed operation; the first few are kept for the report.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// putLatency records the median and the tail of the operation latencies,
// given ascending and in milliseconds.
func (o *outcome) putLatency(ascMS []float64) {
	o.e2e.put("lat_p50_ms", quantile(ascMS, 0.5), len(ascMS))
	var value float64
	value, o.tailPercentile, o.tailSupport = tail(ascMS)
	o.e2e.put("lat_p95_ms", value, len(ascMS))
}

// putMedian records scale times the median of secs, when there are any.
func (o *outcome) putMedian(name string, scale float64, secs []float64) {
	if len(secs) > 0 {
		o.layer.put(name, scale*median(secs), len(secs))
	}
}

// putSpanMedian records scale times the median duration of the named span.
func (o *outcome) putSpanMedian(name, span string, scale float64) {
	o.putMedian(name, scale, o.rec.durations(span))
}

// workloadDef is one workload: a training pipeline or a serving mix.
type workloadDef struct {
	train *trainWorkload
	serve *serveWorkload
}

func (d workloadDef) run(c config) (*outcome, error) {
	if d.train != nil {
		return runTrain(*d.train, c)
	}
	return runServe(*d.serve, c)
}

// workloads maps every workload BENCHMARK.json names to its definition at
// the given sizes. README.md records why each is here.
func workloads(sz sizes) map[string]workloadDef {
	gcn := func(name string, version, rounds int) artifact {
		return artifact{name: name, version: version, arch: "GCN", rounds: rounds}
	}
	serving := func(ab bool, arts ...artifact) workloadDef {
		return workloadDef{serve: &serveWorkload{factor: sz.serveFactor, clients: sz.clients, artifacts: arts, ab: ab}}
	}
	return map[string]workloadDef{
		"fed-step1":     {train: &trainWorkload{dataset: "Physics", factor: sz.fedFactor, clients: sz.clients, rounds: sz.fedRounds}},
		"adafgl-noniid": {train: &trainWorkload{dataset: "Cora", factor: sz.adaFactor, clients: sz.clients, rounds: sz.adaRounds, ada: true, epochs: sz.adaEpochs}},
		"serve-gcn":     serving(false, gcn("base", 1, sz.fixtureRounds)),
		"serve-sgc":     serving(false, artifact{name: "base", version: 1, arch: "SGC", rounds: sz.fixtureRounds}),
		"zoo-ab-swap":   serving(true, gcn("base", 1, sz.fixtureRounds/2), gcn("base", 2, sz.fixtureRounds), gcn("ada", 1, sz.fixtureRounds)),
	}
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload to run; empty runs all five, each in a fresh child process")
	flag.Int64Var(&c.seed, "seed", 1, "seed every input (dataset, split, fixture training, traffic) is derived from")
	flag.Float64Var(&c.seconds, "seconds", 0, "length of the timed phase in seconds (default 10, or the toy length with -quick)")
	flag.IntVar(&c.trace, "trace", 2, "0: end-to-end metrics only; 1: per-layer metrics from the traced pass; 2: both")
	flag.BoolVar(&c.quick, "quick", false, "toy sizes that only exercise the code paths; the numbers mean nothing")
	aa := flag.Int("aa", 0, "run the full set this many times (3 is usual) and compare each end-to-end spread with its bound")
	fixtureDir := flag.String("fixture", "", "internal: train the serving fixture of -workload into this directory and exit")
	flag.Parse()

	c.sizes = fullSizes
	if c.quick {
		c.sizes = quickSizes
	}
	if c.seconds <= 0 {
		c.seconds = c.sizes.seconds.Seconds()
	}
	c.outDir = filepath.Join("benchmark", "out")
	if err := run(c, *aa, *fixtureDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(c config, aa int, fixtureDir string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	switch {
	case fixtureDir != "":
		return runFixture(c, fixtureDir)
	case aa > 0:
		return runAA(c, spec, aa)
	case c.workload == "":
		_, err := runAll(c, spec, true)
		return err
	}
	return runOne(c, spec)
}

// runOne runs a single workload in this process, prints its metrics and
// ends standard output with the result line.
func runOne(c config, spec *benchSpec) error {
	def, ok := workloads(c.sizes)[c.workload]
	if !ok {
		return fmt.Errorf("benchmark: unknown workload %q (have %v)", c.workload, spec.workloadNames())
	}
	shape := machineShape(c.seed)
	fmt.Printf("workload %s  seed %d  timed phase %.3gs  trace %d\n", c.workload, c.seed, c.seconds, c.trace)
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s cpu=%q flags=%q git=%s\n",
		shape.NProc, shape.GOMAXPROCS, shape.GoVersion, shape.CPUModel, shape.CPUFlags, shape.GitSHA)
	out, err := def.run(c)
	if err != nil {
		if out != nil {
			printFailures(out)
		}
		return err
	}

	line := resultLine{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]jsonMetric{}}
	if c.trace != 1 {
		m, err := render(spec.EndToEnd, out.e2e, true)
		if err != nil {
			return err
		}
		printMetrics("end-to-end (tracing off)", spec.EndToEnd, out.e2e, m)
		fmt.Printf("  lat_p95_ms is the p%g here, with %d samples beyond it\n", out.tailPercentile, out.tailSupport)
		maps.Copy(line.Metrics, m)
	}
	if c.trace >= 1 {
		out.layer.put("trace.overhead_share", out.rec.overheadShare(), 0)
		m, err := render(spec.PerLayer, out.layer, false)
		if err != nil {
			return err
		}
		printMetrics("per-layer (traced pass)", spec.PerLayer, out.layer, m)
		maps.Copy(line.Metrics, m)
		path := filepath.Join(c.outDir, "trace-"+c.workload+".jsonl")
		if err := out.rec.writeJSONL(path, map[string]any{"workload": c.workload, "machine": shape}); err != nil {
			return err
		}
		fmt.Printf("  %d spans written to %s\n", len(out.rec.spans), path)
		if e := out.layer["trace.sum_error_share"].v; e > budgetLimit {
			fmt.Printf("  BUDGET: the traced stages miss the whole by %.1f%% (limit %.0f%%)\n", 100*e, 100*budgetLimit)
		}
	}
	printFailures(out)
	fmt.Printf("attempted %d  failed %d  failed_share %.6f  peak_rss_mb %.1f\n",
		out.attempted, out.failed, float64(out.failed)/float64(out.attempted), peakRSSMB())
	line.Failed = out.failed
	line.Correct = out.failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !line.Correct {
		return fmt.Errorf("benchmark: %s: %d of %d operations failed", c.workload, out.failed, out.attempted)
	}
	return nil
}

func printFailures(out *outcome) {
	for _, f := range out.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// printMetrics prints the metrics of one pass, one per line, with unit and
// sample count. Per-layer metrics the workload does not exercise are left
// out of the print (the result line carries them as 0).
func printMetrics(title string, defs []metricDef, got metricSet, m map[string]jsonMetric) {
	fmt.Println(title)
	for _, d := range defs {
		val, ok := got[d.Name]
		if !ok {
			continue
		}
		n := ""
		if val.n > 0 {
			n = fmt.Sprintf("  n=%d", val.n)
		}
		fmt.Printf("  %-30s %14.6g %-8s%s\n", d.Name, m[d.Name].Value, d.Unit, n)
	}
}

// runFixture is the child-process mode that trains a serving fixture.
func runFixture(c config, dir string) error {
	def := workloads(c.sizes)[c.workload]
	if def.serve == nil {
		return fmt.Errorf("benchmark: workload %q has no serving fixture", c.workload)
	}
	return buildFixture(*def.serve, c.seed, dir)
}

package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	q1, q3 = quartiles([]float64{1, 2, 3, 4})
	if !near(q1, 1.25) || !near(q3, 3.75) {
		t.Errorf("quartiles 1..4 = %v, %v, want 1.25, 3.75", q1, q3)
	}
	if got := iqrShare([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 1) {
		t.Errorf("iqrShare 1..10 = %v, want 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if got := nearestRank(asc, 99); got != 990 {
		t.Errorf("nearest-rank p99 of 1..1000 = %v, want 990", got)
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
	if v, p, support := tail(asc); v != 950 || p != 95 || support != 50 {
		t.Errorf("tail of 1..1000 = %v at p%v with %d beyond, want 950 at p95 with 50", v, p, support)
	}
	if _, p, support := tail(asc[:100]); p != 95 || support != 5 {
		t.Errorf("tail of 100 samples: p%v with %d beyond, want p95 with 5", p, support)
	}
	// A handful of iterations has no tail: the figure is the p50.
	if v, p, support := tail([]float64{1, 2, 7}); v != 2 || p != 50 || support != 1 {
		t.Errorf("tail of three = %v at p%v with %d beyond, want 2 at p50 with 1", v, p, support)
	}
	if v, _, _ := tail(nil); v != 0 {
		t.Errorf("tail of nothing = %v, want 0", v)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "whole", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},    // overlaps b
		{Name: "b", Start: 30, End: 60, Parent: 0},    // union with a covers 50
		{Name: "leaf", Start: 35, End: 45, Parent: 2}, // child of b
		{Name: "replayed-whole", Start: 200, End: 300, Parent: -1},
		{Name: "replayed-part", Start: 400, End: 430, Parent: 4}, // outside its parent's interval
	}
	want := []int64{50, 30, 20, 10, 70, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := unionLength([][2]int64{{5, 6}, {0, 10}, {8, 12}, {20, 21}}); got != 13 {
		t.Errorf("unionLength = %d, want 13", got)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	ran := false
	if d := r.timed("x", -1, 0, func() { ran = true }); !ran || d < 0 {
		t.Fatal("a nil recorder must still run the function")
	}
	if got := r.durations("x"); len(got) != 0 {
		t.Errorf("nil recorder has durations %v", got)
	}
	rec := newRecorder()
	rec.timed("x", -1, 0, func() { time.Sleep(time.Millisecond) })
	if d := rec.durations("x"); len(d) != 1 || d[0] < 0.001 {
		t.Errorf("recorded durations %v, want one of at least 1ms", d)
	}
}

func TestTrafficFollowsSeed(t *testing.T) {
	draw := func(seed int64, client int) [][]int {
		tr := newTraffic(seed, client, 5600)
		out := make([][]int, 400)
		for i := range out {
			out[i] = tr.next()
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed must give the same request sequence")
	}
	if reflect.DeepEqual(a, draw(8, 0)) || reflect.DeepEqual(a, draw(7, 1)) {
		t.Fatal("another seed, or another client, must give another sequence")
	}
	sizes := map[int]int{}
	for _, nodes := range a {
		sizes[len(nodes)]++
		seen := map[int]bool{}
		for _, v := range nodes {
			if v < 0 || v >= 5600 || seen[v] {
				t.Fatalf("request %v has an out-of-range or repeated node", nodes)
			}
			seen[v] = true
		}
	}
	if len(sizes) != 3 || sizes[1] < 280 || sizes[16] < 30 || sizes[64] < 5 {
		t.Errorf("request mix %v is not about 80/15/5 over sizes 1/16/64", sizes)
	}
	if got := string(predictBody([]int{3, 14, 15})); got != `{"nodes":[3,14,15]}` {
		t.Errorf("predictBody = %s", got)
	}
	if subSeed(1, "dataset") == subSeed(1, "split") || subSeed(1, "dataset") == subSeed(2, "dataset") || subSeed(1, "x") < 0 {
		t.Error("subSeed must separate streams and seeds and stay non-negative")
	}
}

func TestPrometheusDelta(t *testing.T) {
	before := parseProm([]byte(`# HELP adafgl_serve_requests_total Completed Predict calls.
# TYPE adafgl_serve_requests_total counter
adafgl_serve_requests_total{arch="GCN"} 10
adafgl_serve_requests_total{arch="SGC"} 5
adafgl_registry_ab_nodes_total{arm="control"} 7
adafgl_registry_ab_nodes_total{arm="candidate"} 9
adafgl_registry_swaps_total 1
adafgl_serve_request_latency_seconds_count{arch="GCN"} 10
adafgl_parallel_workers 2
`))
	after := parseProm([]byte(`adafgl_serve_requests_total{arch="GCN"} 25
adafgl_serve_requests_total{arch="SGC"} 5
adafgl_registry_ab_nodes_total{arm="control"} 17
adafgl_registry_ab_nodes_total{arm="candidate"} 9
adafgl_registry_swaps_total 4
adafgl_serve_requests_total_bogus 99
not a sample line
adafgl_parallel_workers 2
`))
	for _, tc := range []struct {
		family, label string
		want          float64
	}{
		{"adafgl_serve_requests_total", "", 15},
		{"adafgl_serve_requests_total", `arch="SGC"`, 0},
		{"adafgl_registry_ab_nodes_total", `arm="control"`, 10},
		{"adafgl_registry_ab_nodes_total", `arm="candidate"`, 0},
		{"adafgl_registry_swaps_total", "", 3},
		{"adafgl_missing_total", "", 0},
	} {
		if got := delta(before, after, tc.family, tc.label); got != tc.want {
			t.Errorf("delta(%s, %s) = %v, want %v", tc.family, tc.label, got, tc.want)
		}
	}
	if got := after.family("adafgl_parallel_workers", ""); got != 2 {
		t.Errorf("gauge reading = %v, want 2", got)
	}
}

func TestParseCPUInfo(t *testing.T) {
	model, flags := parseCPUInfo("processor\t: 0\nmodel name\t: Example CPU @ 2GHz\nflags\t\t: fpu sse4_2 avx avx2 fma\n" +
		"processor\t: 1\nmodel name\t: Other\nflags\t\t: fpu\n")
	if model != "Example CPU @ 2GHz" || flags != "sse4_2 avx avx2 fma" {
		t.Errorf("parseCPUInfo = %q, %q", model, flags)
	}
	if m := machineShape(3); m.NProc < 1 || m.GOMAXPROCS < 1 || m.GoVersion == "" || m.Seed != 3 {
		t.Errorf("machineShape = %+v", m)
	}
}

func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var have []string
	for name := range workloads(fullSizes) {
		have = append(have, name)
	}
	want := spec.workloadNames()
	sort.Strings(have)
	sort.Strings(want)
	if !reflect.DeepEqual(have, want) {
		t.Errorf("program runs %v, BENCHMARK.json names %v", have, want)
	}
	hasSetup := false
	for _, d := range spec.EndToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("BENCHMARK.json must declare setup_s in s, lower is better")
	}
	if _, err := render(spec.EndToEnd, metricSet{}, true); err == nil {
		t.Error("an unmeasured end-to-end metric must be an error")
	}
	if _, err := render(spec.PerLayer, metricSet{"no.such_metric": {}}, false); err == nil {
		t.Error("an undeclared metric must be an error")
	}
}

// TestQuickPass runs all five workloads at toy scale, both passes, so that
// tier-1 `go test ./...` exercises every code path of the benchmark: fixture
// training, repeated set-up, the closed loop with verification, A/B routing
// and swaps, both traced passes and every layer probe.
func TestQuickPass(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, name := range spec.workloadNames() {
		c := config{workload: name, seed: 1, seconds: quickSizes.seconds.Seconds(), trace: 2, quick: true, sizes: quickSizes, outDir: t.TempDir()}
		out, err := workloads(c.sizes)[name].run(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.failed != 0 || out.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, out.failed, out.attempted, out.failures)
		}
		e2e, err := render(spec.EndToEnd, out.e2e, true)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for metric, m := range e2e {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be above 0", name, metric, m.Value)
			}
		}
		if _, err := render(spec.PerLayer, out.layer, false); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(out.rec.spans) == 0 {
			t.Errorf("%s: the traced pass recorded no spans", name)
		}
		if err := out.rec.writeJSONL(c.outDir+"/trace.jsonl", map[string]string{"workload": name}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// About 2 s on the reference machine; the limit leaves room for the race
	// detector and for the machine's slow spells.
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("quick pass took %v, want a few seconds", took)
	}
}

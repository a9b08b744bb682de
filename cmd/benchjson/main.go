// Command benchjson converts `go test -bench` output into the
// machine-readable bench trajectory artifact BENCH_smoke.json: one record
// per benchmark with the operation, its parameter string, ns/op, and — for
// sweeps that carry a path=<kernel> parameter — the speedup against the
// sibling baseline kernel (path=naive for the GEMM sweep, path=rowstream
// for the SpMM sweeps, path=single for the serving-batcher
// sweep, path=direct for the registry-routing sweep, path=whole for the
// shard-scale sweep, path=notelemetry for the telemetry-overhead sweep —
// there the enabled row's speedup is its fraction of uninstrumented
// throughput, so values near 1.0 mean the instruments stay inside their
// budget). Custom metrics a
// benchmark emits via b.ReportMetric (e.g. the torture harness's shed-rate
// and p99-ns) land in the record's "extra" map keyed by unit. CI runs it on
// the smoke-bench output so
// the artifact tracks every engine's speedup over time; `make bench` mirrors
// it locally.
//
// Usage:
//
//	benchjson -in bench-smoke.txt -out BENCH_smoke.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark record.
type Result struct {
	// Op is the benchmark name up to the first '/', without the Benchmark
	// prefix (e.g. "SpMM", "GEMM").
	Op string `json:"op"`
	// Size is the sub-benchmark parameter string (e.g.
	// "n=50000/deg=20/cols=64/path=blocked/workers=1"); empty for flat
	// benchmarks.
	Size string `json:"size"`
	// NsPerOp is the measured time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// Speedup is baseline ns/op divided by this record's ns/op, present when
	// a sibling baseline-path record exists (the baseline itself reports 1).
	Speedup float64 `json:"speedup,omitempty"`
	// Extra holds custom metrics the benchmark emitted via b.ReportMetric,
	// keyed by unit (e.g. "shed-rate", "p99-ns"); absent when none were
	// reported. The standard ns/op figure is never duplicated here.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// benchLine matches `BenchmarkFoo/sub-8   	 10	 123456 ns/op ...`,
// capturing the name (GOMAXPROCS suffix stripped), the ns/op figure, and the
// remainder of the line (custom b.ReportMetric pairs).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

// metricPair matches one `<value> <unit>` custom-metric token after ns/op.
var metricPair = regexp.MustCompile(`([0-9.eE+-]+) ([^\s]+)`)

// baselinePaths are the path= values treated as the reference kernel of
// their sweep.
var baselinePaths = map[string]bool{"naive": true, "rowstream": true, "single": true, "direct": true, "whole": true, "notelemetry": true}

func main() {
	in := flag.String("in", "bench-smoke.txt", "go test -bench output to parse")
	out := flag.String("out", "BENCH_smoke.json", "JSON artifact to write")
	flag.Parse()

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()

	results, err := Parse(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	FillSpeedups(results)

	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: %d benchmarks -> %s\n", len(results), *out)
}

// Parse extracts benchmark records from go test -bench output.
func Parse(f *os.File) ([]*Result, error) {
	var results []*Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %v", sc.Text(), err)
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		op, size, _ := strings.Cut(name, "/")
		r := &Result{Op: op, Size: size, NsPerOp: ns}
		for _, pair := range metricPair.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil || pair[2] == "B/op" || pair[2] == "allocs/op" {
				continue
			}
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[pair[2]] = v
		}
		results = append(results, r)
	}
	return results, sc.Err()
}

// FillSpeedups computes per-record speedups against the baseline kernel of
// each sweep group: records sharing (op, parameters minus the path= and
// tiles= tokens) form a group, and the group's path∈baselinePaths record
// supplies the reference ns/op every sibling is divided into.
func FillSpeedups(results []*Result) {
	base := make(map[string]float64)
	for _, r := range results {
		key, path := groupKey(r)
		if baselinePaths[path] {
			base[key] = r.NsPerOp
		}
	}
	for _, r := range results {
		key, path := groupKey(r)
		if path == "" {
			continue
		}
		if b, ok := base[key]; ok && r.NsPerOp > 0 {
			r.Speedup = b / r.NsPerOp
		}
	}
}

// groupKey strips the path= and tiles= tokens from a record's parameters,
// returning the residual key and the path value.
func groupKey(r *Result) (key, path string) {
	var rest []string
	for _, tok := range strings.Split(r.Size, "/") {
		switch {
		case strings.HasPrefix(tok, "path="):
			path = strings.TrimPrefix(tok, "path=")
		case strings.HasPrefix(tok, "tiles="):
			// Tile configs compare against the single untiled baseline.
		default:
			rest = append(rest, tok)
		}
	}
	return r.Op + "|" + strings.Join(rest, "/"), path
}

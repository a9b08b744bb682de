package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound, present on
// end-to-end metrics only, is the share of the parent's median by which the
// metric may get worse before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units, directions
// and bounds are written down. The program reads it instead of repeating it,
// so a name cannot drift between the two.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory under `go run ./benchmark`, its parent under `go test`.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("benchmark: %s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("benchmark: run from the repository root: %w", firstErr)
}

func (s *benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// value is one measured metric: the figure and how many samples it rests on
// (0 for a count or a computed figure).
type value struct {
	v float64
	n int
}

// metricSet collects the values one pass measured, by name.
type metricSet map[string]value

func (m metricSet) put(name string, v float64, n int) { m[name] = value{v, n} }

// render resolves a pass's values against the declared metrics. Every value
// must belong to a declared metric. A declared end-to-end metric that was
// not measured is an error (they are never zero); a per-layer metric the
// workload does not exercise reads 0 — no time was spent there.
func render(defs []metricDef, got metricSet, requireAll bool) (map[string]jsonMetric, error) {
	declared := map[string]bool{}
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		declared[d.Name] = true
		val, ok := got[d.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("benchmark: end-to-end metric %s was not measured", d.Name)
		}
		out[d.Name] = jsonMetric{Value: val.v, Unit: d.Unit}
	}
	var stray []string
	for name := range got {
		if !declared[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("benchmark: metrics %v are not declared in BENCHMARK.json", stray)
	}
	return out, nil
}

// jsonMetric is a metric as the result line carries it.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

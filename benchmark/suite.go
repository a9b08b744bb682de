package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild runs one workload in a fresh child process of this binary, so
// that one workload's peak memory and warmed caches never leak into the
// next, and returns its result line.
func runChild(c config, workload string, stdout io.Writer) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", strconv.Itoa(c.trace),
	}
	if c.quick {
		args = append(args, "-quick")
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &buf), os.Stderr
	runErr := cmd.Run() // waits for the child to end
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("benchmark: %s printed no result line (%v)", workload, runErr)
	}
	return &line, runErr
}

// runAll runs every workload, one after another and never concurrently, and
// returns each one's result line by workload name. It fails if any did.
func runAll(c config, spec *benchSpec, verbose bool) (map[string]*resultLine, error) {
	stdout := io.Writer(os.Stdout)
	if !verbose {
		stdout = io.Discard
	}
	results := map[string]*resultLine{}
	var failed []string
	for _, name := range spec.workloadNames() {
		fmt.Fprintf(stdout, "\n=== %s ===\n", name)
		line, err := runChild(c, name, stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = append(failed, name)
		}
		if line != nil {
			results[name] = line
			// The budget assertion: the traced stages must account for the whole.
			if e := line.Metrics["trace.sum_error_share"].Value; e > budgetLimit {
				fmt.Fprintf(os.Stderr, "benchmark: %s: traced stages miss the whole by %.1f%% (limit %.0f%%)\n", name, 100*e, 100*budgetLimit)
				failed = append(failed, name+" (budget)")
			}
		}
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("benchmark: workloads failed: %v", failed)
	}
	return results, nil
}

// runAA runs the full set n times on the same binary and seed and prints,
// for every end-to-end metric on every workload, the minimum, median and
// maximum and the relative spread the driver judges a benchmark by: the
// distance between the quartiles over the median (with three sets that is
// the whole range; ten sets is what the driver runs). It fails when a spread
// exceeds the metric's bound — a bound narrower than the benchmark's own
// run-to-run spread could not tell a regression from noise. setup_s is
// printed but, as in the driver, not held to its bound here: on the serving
// workloads it is tens of milliseconds, and its bound guards the medians.
func runAA(c config, spec *benchSpec, n int) error {
	c.trace = 0
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for rep := 0; rep < n; rep++ {
		fmt.Printf("A/A set %d of %d\n", rep+1, n)
		results, err := runAll(c, spec, false)
		if err != nil {
			return err
		}
		for name, line := range results {
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, m := range line.Metrics {
				values[name][metric] = append(values[name][metric], m.Value)
			}
		}
	}
	fmt.Printf("\n%-14s %-12s %12s %12s %12s %8s %8s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	var over []string
	for _, name := range spec.workloadNames() {
		for _, d := range spec.EndToEnd {
			asc := sorted(values[name][d.Name])
			spread := iqrShare(asc)
			mark := ""
			if spread > d.Bound && d.Name != "setup_s" {
				mark = "  OVER"
				over = append(over, name+"/"+d.Name)
			}
			fmt.Printf("%-14s %-12s %12.6g %12.6g %12.6g %7.2f%% %7.2f%%%s\n",
				name, d.Name, asc[0], quantile(asc, 0.5), asc[len(asc)-1], 100*spread, 100*d.Bound, mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("benchmark: A/A spread exceeds the bound on %v", over)
	}
	return nil
}

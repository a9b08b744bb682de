package bench

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/parallel"
)

var update = flag.Bool("update", false, "re-record testdata/paper_tiny.golden from the current code")

// goldenPaperIDs is every experiment whose output is a pure function of the
// Scale: the paper's tables and figures plus chaos. The remaining harness ids
// print timings.
var goldenPaperIDs = []string{
	"table1", "table2", "table3", "table3i", "table4", "table5", "table6", "table7", "table8",
	"fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "chaos",
}

// renderPaperExperiments runs every golden id and returns the text the
// golden file holds: one "== id ==" header per experiment, then its lines.
func renderPaperExperiments(t *testing.T, s Scale) string {
	t.Helper()
	var b strings.Builder
	for _, id := range goldenPaperIDs {
		lines, err := RunExperiment(id, s)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b.WriteString("== " + id + " ==\n")
		for _, l := range lines {
			b.WriteString(l + "\n")
		}
	}
	return b.String()
}

// TestGoldenPaperExperiments pins every rendered line of Tables I–VIII,
// Figs. 2–11 and chaos at tinyScale with two seeds per cell (so the seed loop
// and ±std are exercised) against testdata/paper_tiny.golden, at 1 and 3
// workers. The file is text so a moved cell reads as a diff; an intended
// change re-records it with `go test ./internal/bench -run
// TestGoldenPaperExperiments -update`.
func TestGoldenPaperExperiments(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden is recorded on amd64 (AVX2+FMA micro-kernel); compilers for other architectures fuse multiply-adds")
	}
	s := tinyScale()
	s.Runs = 2
	path := filepath.Join("testdata", "paper_tiny.golden")
	for _, workers := range []int{1, 3} {
		orig := parallel.SetWorkers(workers)
		got := renderPaperExperiments(t, s)
		parallel.SetWorkers(orig)
		if *update && workers == 1 {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		id := ""
		for i := 0; i < len(gl) || i < len(wl); i++ {
			g, w := "<missing>", "<missing>"
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if strings.HasPrefix(w, "== ") {
				id = w
			}
			if g != w {
				t.Fatalf("workers=%d: line %d (%s):\n got  %q\n want %q", workers, i+1, id, g, w)
			}
		}
	}
}

package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// machine is the shape of the host a result was measured on. Numbers from
// two machines, or two Go versions, are not comparable; it is recorded with
// every result so that a reader can tell.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	CPUFlags   string `json:"cpu_flags"`
	GitSHA     string `json:"git_sha"`
	Seed       int64  `json:"seed"`
}

// cpuFlagsOfInterest are the /proc/cpuinfo flags the kernels dispatch on.
var cpuFlagsOfInterest = []string{"sse4_2", "avx", "avx2", "fma", "avx512f"}

func machineShape(seed int64) machine {
	m := machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", GitSHA: "unknown", Seed: seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		m.CPUModel, m.CPUFlags = parseCPUInfo(string(data))
	}
	// `go build` stamps the revision into the binary, `go run` does not; then
	// ask git. The driver's checkout is not a work tree: there it stays unknown.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.GitSHA = s.Value
			}
		}
	}
	if m.GitSHA == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.GitSHA = strings.TrimSpace(string(out))
		}
	}
	return m
}

// parseCPUInfo extracts the first model name and the flags of interest.
func parseCPUInfo(text string) (model, flags string) {
	model = "unknown"
	var have []string
	for _, line := range strings.Split(text, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			if have == nil {
				set := map[string]bool{}
				for _, f := range strings.Fields(val) {
					set[f] = true
				}
				have = []string{}
				for _, f := range cpuFlagsOfInterest {
					if set[f] {
						have = append(have, f)
					}
				}
			}
		}
	}
	return model, strings.Join(have, " ")
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB; 0 when
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

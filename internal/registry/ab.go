package registry

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/serve"
)

// ABConfig is the A/B splitter configuration set by POST /v1/ab: requests
// addressed to Control's active version are rerouted node-by-node, sending
// the Fraction of node-hash space below p to Candidate. Hashing is
// deterministic in (node, Salt), so repeat queries for a node are sticky to
// one arm — the property that makes online accuracy per arm well-defined.
type ABConfig struct {
	// Control is the model name whose traffic is split (the incumbent — an
	// FGL baseline in the paper's comparison).
	Control string `json:"control"`
	// Candidate receives the split-off fraction (AdaFGL in the paper's
	// comparison).
	Candidate string `json:"candidate"`
	// Fraction is the share of node-hash space routed to Candidate,
	// in [0, 1].
	Fraction float64 `json:"fraction"`
	// Salt perturbs the node hash so successive experiments draw different
	// node partitions. Optional.
	Salt uint64 `json:"salt,omitempty"`
}

// abState carries the active experiment and its per-arm counters (A/B
// traffic only — per-model totals accumulate separately).
type abState struct {
	cfg                ABConfig
	control, candidate modelStats
}

// ConfigureAB installs (or replaces) the A/B experiment. Both models must be
// registered and distinct; Fraction must lie in [0, 1]. Arm counters start
// at zero. An empty Control disables splitting.
func (r *Registry) ConfigureAB(cfg ABConfig) error {
	if cfg.Control == "" && cfg.Candidate == "" {
		r.mu.Lock()
		r.ab = nil
		r.mu.Unlock()
		return nil
	}
	if cfg.Fraction < 0 || cfg.Fraction > 1 {
		return fmt.Errorf("registry: ConfigureAB: fraction %v outside [0,1]", cfg.Fraction)
	}
	if cfg.Control == cfg.Candidate {
		return fmt.Errorf("registry: ConfigureAB: control and candidate are both %q", cfg.Control)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range []string{cfg.Control, cfg.Candidate} {
		if _, _, err := r.resolveLocked(name, 0); err != nil {
			return fmt.Errorf("registry: ConfigureAB: %w", err)
		}
	}
	r.ab = &abState{cfg: cfg, control: newModelStats(), candidate: newModelStats()}
	return nil
}

// ABActive returns the current A/B configuration, if one is installed.
func (r *Registry) ABActive() (ABConfig, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ab == nil {
		return ABConfig{}, false
	}
	return r.ab.cfg, true
}

// abHash maps a node id (with salt) onto [0, 1) via FNV-1a — deterministic,
// so a node's arm never changes within one experiment.
func abHash(node int, salt uint64) float64 {
	h := fnv.New64a()
	var buf [16]byte
	v := uint64(node)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
		buf[8+i] = byte(salt >> (8 * i))
	}
	h.Write(buf[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// ABRoute reports which arm the splitter sends node to under cfg: true means
// the candidate. Exposed so tests and benches can assert stickiness.
func ABRoute(cfg ABConfig, node int) bool {
	return abHash(node, cfg.Salt) < cfg.Fraction
}

// predictAB answers a control-addressed request under the active experiment:
// nodes are partitioned by the deterministic hash, each non-empty arm runs
// one predict on its model's active version, per-arm counters are updated,
// and the answers are merged back into request order. When both arms have
// nodes they run concurrently — each pins its own handle, each waits out its
// own server's batch window — so a split node set costs the slower arm, not
// the sum. When both fail, control's error is the one reported.
func (r *Registry) predictAB(ctx context.Context, cfg ABConfig, nodes []int) ([]serve.Prediction, error) {
	var ctrlNodes, candNodes []int
	var ctrlPos, candPos []int
	for i, n := range nodes {
		if ABRoute(cfg, n) {
			candNodes = append(candNodes, n)
			candPos = append(candPos, i)
		} else {
			ctrlNodes = append(ctrlNodes, n)
			ctrlPos = append(ctrlPos, i)
		}
	}
	telABControl.Add(uint64(len(ctrlNodes)))
	telABCandidate.Add(uint64(len(candNodes)))
	out := make([]serve.Prediction, len(nodes))
	// run answers one arm into its own positions of out (the arms' positions
	// are disjoint, so concurrent arms never write the same element).
	run := func(name string, armNodes, pos []int, arm func(*abState) *modelStats) error {
		if len(armNodes) == 0 {
			return nil
		}
		preds, labelled, correct, lat, err := r.predictOn(ctx, name, 0, armNodes)
		if err != nil {
			return err
		}
		for i, p := range preds {
			out[pos[i]] = p
		}
		// Fold into the experiment counters, provided the same experiment is
		// still installed (a concurrent reconfigure resets the arms).
		r.mu.Lock()
		if r.ab != nil && r.ab.cfg == cfg {
			arm(r.ab).record(len(armNodes), labelled, correct, lat)
		}
		r.mu.Unlock()
		return nil
	}
	control := func() error {
		return run(cfg.Control, ctrlNodes, ctrlPos, func(s *abState) *modelStats { return &s.control })
	}
	candidate := func() error {
		return run(cfg.Candidate, candNodes, candPos, func(s *abState) *modelStats { return &s.candidate })
	}
	var ctrlErr, candErr error
	if len(ctrlNodes) > 0 && len(candNodes) > 0 {
		ctrlErr, candErr = inParallel(control, candidate)
	} else {
		ctrlErr, candErr = control(), candidate()
	}
	if ctrlErr != nil {
		return nil, ctrlErr
	}
	if candErr != nil {
		return nil, candErr
	}
	return out, nil
}

// inParallel runs a on the caller's goroutine and b on a second one, and
// returns both results once both are done. A panic in b is re-raised on the
// caller's goroutine, where the HTTP layer's recovery turns it into a 500 —
// left on its own goroutine it would kill the process.
func inParallel(a, b func() error) (errA, errB error) {
	var panicked any
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { panicked = recover() }()
		errB = b()
	}()
	errA = a()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return errA, errB
}

// ABArmReport is one arm of the A/B report: the model behind it and its
// cumulative counters over experiment traffic.
type ABArmReport struct {
	// Model is the arm's model name.
	Model string `json:"model"`
	// Stats are the arm's counters (accuracy over labelled nodes, latency
	// percentiles over the recent window).
	Stats ArmStats `json:"stats"`
}

// ABReport is the payload of GET /v1/ab/report: the live comparison of
// control vs candidate — the paper's baseline-vs-AdaFGL table as an online
// measurement.
type ABReport struct {
	// Config echoes the installed experiment.
	Config ABConfig `json:"config"`
	// Control and Candidate carry the per-arm measurements.
	Control   ABArmReport `json:"control"`
	Candidate ABArmReport `json:"candidate"`
}

// ABReportNow assembles the current A/B report; it errors when no experiment
// is configured. The arm counters are copied under Registry.mu and rendered
// after it is released.
func (r *Registry) ABReportNow() (*ABReport, error) {
	r.mu.Lock()
	if r.ab == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: ABReportNow: no A/B experiment configured: %w", ErrNotFound)
	}
	cfg, control, candidate := r.ab.cfg, r.ab.control.copyLocked(), r.ab.candidate.copyLocked()
	r.mu.Unlock()
	return &ABReport{
		Config:    cfg,
		Control:   ABArmReport{Model: cfg.Control, Stats: control.view()},
		Candidate: ABArmReport{Model: cfg.Candidate, Stats: candidate.view()},
	}, nil
}

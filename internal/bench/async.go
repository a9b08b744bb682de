package bench

import (
	"fmt"

	"repro/internal/federated"
	"repro/internal/models"
)

// Async is the aggregation-engine experiment ("async"): rounds-to-accuracy
// and simulated wall-clock of K-of-N commits against the synchronous barrier
// (K = N, plain FedAvg) when one client runs 4x slower than the rest (plus
// mild jitter): the barrier pays the straggler every round, while buffered
// commits ride the fast clients and fold the straggler's updates in
// staleness-discounted. Only MinUpdates varies between rows, so the K = N row
// is the reference; the experiment checks on every run that it really was a
// full barrier and reports, per K, the commit count and simulated time at
// which the run first reaches 95% of the barrier's final accuracy.
func Async(s Scale) ([]string, error) {
	const dataset = "Cora"
	const skew = 4.0
	subs, err := MakeSplit(dataset, Community, s, s.Seed)
	if err != nil {
		return nil, err
	}
	n := len(subs)
	// Clients beyond len(Slowdown) run at nominal speed, so one entry skews
	// exactly one straggler.
	speed := &federated.SpeedModel{Slowdown: []float64{skew}, Jitter: 0.05, Seed: s.Seed}

	// The experiment owns its K sweep: the global -async-k/-async-staleness
	// flags (Scale.Async) must not bleed into it.
	rounds := s.fedOpts(s.Seed).Rounds
	run := func(k int) (*federated.Result, error) {
		clients := federated.BuildClients(subs, models.Registry["GCN"], s.cfg(), s.Seed)
		o := s.fedOpts(s.Seed)
		// Equal total work across rows: a K-of-N commit consumes K local
		// updates where a synchronous round consumes N, so K gets N/K times
		// the commits of the barrier run (exactly Rounds at K = N).
		o.Rounds = (rounds*n + k - 1) / k
		o.Async = federated.AsyncOptions{MinUpdates: k, Speed: speed}
		return federated.Run(clients, s.Seed+1, o)
	}

	barrier, err := run(n)
	if err != nil {
		return nil, err
	}
	if barrier.MeanStaleness != 0 || barrier.StragglerUpdates != 0 || barrier.CommittedUpdates != barrier.DispatchedUpdates {
		return nil, fmt.Errorf("bench: async K=N was not a full barrier: staleness %v, %d stragglers, %d of %d updates committed",
			barrier.MeanStaleness, barrier.StragglerUpdates, barrier.CommittedUpdates, barrier.DispatchedUpdates)
	}

	target := 0.95 * barrier.TestAcc
	lines := []string{
		fmt.Sprintf("Async aggregation: sync vs K-of-N commits on %s, %d clients, %d rounds", dataset, n, rounds),
		fmt.Sprintf("speed skew: client 0 at %.0fx, jitter 5%%; target = 95%% of sync final accuracy (%.3f)", skew, target),
		fmt.Sprintf("%-12s %9s %9s %12s %12s %10s", "engine", "final", "@target", "t(target)", "t(end)", "staleness"),
	}
	row := func(name string, r *federated.Result) {
		at, tTarget := "never", "-"
		for i, acc := range r.RoundAcc {
			if acc >= target {
				at, tTarget = fmt.Sprintf("r%d", i+1), fmt.Sprintf("%.0f", r.RoundTime[i])
				break
			}
		}
		tEnd := fmt.Sprintf("%.0f", r.RoundTime[len(r.RoundTime)-1])
		lines = append(lines, fmt.Sprintf("%-12s %9.3f %9s %12s %12s %10.2f",
			name, r.TestAcc, at, tTarget, tEnd, r.MeanStaleness))
	}
	row(fmt.Sprintf("sync K=%d", n), barrier)
	seen := map[int]bool{n: true}
	for _, k := range []int{n - 1, (n + 1) / 2, 1} {
		if k < 1 || k >= n || seen[k] {
			continue
		}
		seen[k] = true
		r, err := run(k)
		if err != nil {
			return nil, err
		}
		row(fmt.Sprintf("async K=%d", k), r)
	}
	return lines, nil
}

package bench

import (
	"fmt"
	"time"

	"repro/internal/datasets"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// ShardExp is the million-node scaling experiment ("shard"): it streams one
// synthetic graph (never materialising the full edge list) into 1, 2, 4, …
// ShardMax shards and measures, per shard count, the largest shard's memory
// footprint — what one process of a shard-per-process fleet provisions — the
// fleet propagation wall-clock (the slowest shard's 2-hop time, since shards
// propagate concurrently and synchronise only at halo exchanges). Serving is
// not in the sweep: the server is the same N×C logits table at every shard
// count, and sharding bounds only what a process holds while filling it.
// Memory linearity is enforced (±25% of the balanced share, deterministic);
// timing linearity is reported as the fleet speedup column. A final
// overlap-scale cross-check rebuilds a smaller graph at 1 and ShardMax shards
// and fails the experiment unless the ShardMax-shard fill answers
// bit-identically to the 1-shard fill.
func ShardExp(s Scale) ([]string, error) {
	nodes := s.ShardNodes
	if nodes <= 0 {
		nodes = 60_000
	}
	maxShards := s.ShardMax
	if maxShards <= 0 {
		maxShards = 8
	}
	reps := s.Runs
	if reps < 1 {
		reps = 1
	}
	const hops = 2
	spec := datasets.DefaultStream(nodes, s.Seed)

	lines := []string{
		fmt.Sprintf("Shard: streamed %d-node graph (avg degree %g) across shard counts, %d-hop windows", nodes, spec.AvgDegree, hops),
		fmt.Sprintf("%7s %10s %10s %8s %10s %10s %9s", "shards", "build", "max-shard", "mem-lin", "halo-frac", "fleet-prop", "fleet-spd"),
	}

	var totalOne int           // Bytes() of the 1-shard build: the memory baseline
	var fleetOne time.Duration // 1-shard propagation time: the speedup baseline
	for shards := 1; shards <= maxShards; shards *= 2 {
		p, err := shard.PlanFromStream(spec, shards, s.Seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sh, err := shard.BuildFromStream(spec, p, sparse.NormSym)
		if err != nil {
			return nil, err
		}
		tBuild := time.Since(start)

		if shards == 1 {
			totalOne = sh.Bytes()
		}
		maxBytes := sh.MaxShardBytes()
		// mem-lin is the largest shard's footprint over the balanced share of
		// the unsharded build: 1.0 = perfectly linear scaling, and anything
		// past 1.25 means a fleet can no longer provision 1/shards of the
		// single-process memory per process.
		memLin := float64(maxBytes) * float64(shards) / float64(totalOne)
		if memLin > 1.25 {
			return nil, fmt.Errorf("bench: shard memory non-linear at %d shards: largest shard %d bytes is %.2fx the balanced share of %d",
				shards, maxBytes, memLin, totalOne)
		}
		halo, cols := 0, 0
		for _, one := range sh.Shards {
			halo += one.Halo()
			cols += len(one.Cols)
		}

		// Fleet propagation: each shard's SpMM runs on its own process, so
		// the fleet's wall-clock per hop is the slowest shard's product. The
		// plan build is shared setup; MulDense is the per-hop cost.
		slabs := sh.FeatureSlabs()
		plans := make([]*sparse.Plan, len(sh.Shards))
		for i, one := range sh.Shards {
			plans[i] = sparse.NewPlan(one.Adj)
		}
		var fleet time.Duration
		for i := range plans {
			t := best(reps, func() { _ = plans[i].MulDense(slabs[i]) })
			if t > fleet {
				fleet = t
			}
		}
		fleet *= hops
		if shards == 1 {
			fleetOne = fleet
		}

		lines = append(lines, fmt.Sprintf("%7d %10v %9.1fM %7.2fx %9.3f%% %10v %8.2fx",
			shards, tBuild.Round(time.Millisecond), float64(maxBytes)/1e6, memLin,
			100*float64(halo)/float64(cols), fleet.Round(time.Microsecond),
			float64(fleetOne)/float64(fleet)))
	}

	if err := shardOverlapCheck(s, maxShards); err != nil {
		return nil, err
	}
	lines = append(lines, fmt.Sprintf("overlap check: %d-shard fill bit-identical to the 1-shard fill ✓", maxShards))
	return lines, nil
}

// shardBenchHead builds the deterministic single-layer head both fills of the
// overlap check run behind.
func shardBenchHead(spec datasets.StreamSpec) []models.HeadLayer {
	w := matrix.New(spec.Features, spec.Classes)
	for i := range w.Data {
		w.Data[i] = float64(i%13) - 6
	}
	return []models.HeadLayer{{W: w, Bias: make([]float64, spec.Classes)}}
}

// shardOverlapCheck rebuilds a smaller graph — one that fits a single shard —
// at 1 and maxShards shards and verifies the two fills answer a strided
// sample bit-identically, anchoring the big sweep's correctness.
func shardOverlapCheck(s Scale, maxShards int) error {
	nodes := s.ShardNodes
	if nodes <= 0 || nodes > 20_000 {
		nodes = 20_000
	}
	spec := datasets.DefaultStream(nodes, s.Seed+1)
	rec := models.EmbeddingSpec{Hops: 2, Norm: sparse.NormSym}
	head := shardBenchHead(spec)

	servers := make([]*serve.Server, 0, 2)
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	for _, shards := range []int{1, maxShards} {
		p, err := shard.PlanFromStream(spec, shards, s.Seed)
		if err != nil {
			return err
		}
		sh, err := shard.BuildFromStream(spec, p, sparse.NormSym)
		if err != nil {
			return err
		}
		table, err := shard.Table(sh, head, rec)
		if err != nil {
			return err
		}
		srv, err := serve.NewFromTable("SGC", table, sh.Labels(), serve.Options{})
		if err != nil {
			return err
		}
		servers = append(servers, srv)
	}
	var sample []int
	for v := 0; v < nodes; v += 37 {
		sample = append(sample, v)
	}
	a, err := servers[0].Predict(sample)
	if err != nil {
		return err
	}
	b, err := servers[1].Predict(sample)
	if err != nil {
		return err
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Class != b[i].Class {
			return fmt.Errorf("bench: shard overlap check: query %d answered (%d,%d) sharded vs (%d,%d) unsharded",
				i, b[i].Node, b[i].Class, a[i].Node, a[i].Class)
		}
		for j := range a[i].Logits {
			if a[i].Logits[j] != b[i].Logits[j] {
				return fmt.Errorf("bench: shard overlap check: node %d logit %d differs between %d-shard and unsharded",
					a[i].Node, j, maxShards)
			}
		}
	}
	return nil
}

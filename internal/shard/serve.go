package shard

import (
	"context"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// shardSource exposes one shard as a graph.NodeSource (local ids): the node
// universe a per-shard serve.Server validates and answers against.
type shardSource struct {
	s       *Shard
	classes int
}

func (src shardSource) NumNodes() int   { return len(src.s.Nodes) }
func (src shardSource) NumClasses() int { return src.classes }
func (src shardSource) Label(local int) (int, bool) {
	if src.s.Labels == nil || local < 0 || local >= len(src.s.Labels) {
		return 0, false
	}
	return src.s.Labels[local], true
}

// Server routes node-classification queries across per-shard serving
// instances: each shard runs its own serve.Server over its local embedding
// slab, and the router sends every queried node to its owner, reassembling
// answers in query order with global node ids. It implements
// serve.Predictor, so the registry's swap/LRU/breaker machinery and the v1
// HTTP API drive a sharded fleet exactly like a single-process server.
type Server struct {
	sh    *Sharded
	arch  string
	subs  []*serve.Server
	route []routeSeries // per-owner fan-out counters, resolved once
}

// NewFromParts starts a sharded decoupled server from an already-built
// shard set: the embedding recipe is replayed shard-locally (halo exchange
// at the boundaries), and each shard serves its slab behind the shared
// head. The head weights are shared — in a real fleet they are broadcast
// once, dwarfed by the per-shard slabs.
func NewFromParts(sh *Sharded, arch string, head []models.HeadLayer, spec models.EmbeddingSpec, opt serve.Options) (*Server, error) {
	if sh == nil {
		return nil, fmt.Errorf("shard: NewFromParts: nil shard set")
	}
	if sh.Norm != spec.Norm {
		return nil, fmt.Errorf("shard: NewFromParts: shards built with norm %v, spec wants %v", sh.Norm, spec.Norm)
	}
	locals, err := sh.Embedding(spec.Hops, spec.HopWeights)
	if err != nil {
		return nil, fmt.Errorf("shard: NewFromParts: %w", err)
	}
	s := &Server{
		sh: sh, arch: arch,
		subs:  make([]*serve.Server, len(sh.Shards)),
		route: newRouteSeries(len(sh.Shards)),
	}
	for i, shd := range sh.Shards {
		sub, err := serve.NewFromFactors(shardSource{s: shd, classes: sh.Classes}, locals[i], head, arch, opt)
		if err != nil {
			for _, prev := range s.subs[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("shard: NewFromParts: shard %d: %w", i, err)
		}
		s.subs[i] = sub
	}
	return s, nil
}

// NewServer builds a Predictor for a checkpoint under a shard count.
// Decoupled architectures at two or more shards are METIS-planned and served
// by the routed per-shard fleet, each shard answering from its slab of the
// embedding, bit-identical to the unsharded server at every shard count.
// Everything else — one shard, or a message-passing architecture, whose
// whole serving state is one N×C logits table, smaller than any shard's
// feature slab — is the plain single-process server: one answer per
// checkpoint, whatever the shard count.
func NewServer(ck *checkpoint.Checkpoint, shards int, opt serve.Options) (serve.Predictor, error) {
	if ck == nil {
		return nil, fmt.Errorf("shard: NewServer: nil checkpoint")
	}
	m, err := ck.Model(opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("shard: NewServer: %w", err)
	}
	dec, ok := m.(models.ShardableDecoupled)
	if shards <= 1 || !ok {
		return serve.NewFromModel(ck.Graph, m, ck.Arch, opt)
	}
	plan, err := PlanFromGraph(ck.Graph, shards, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("shard: NewServer: %w", err)
	}
	spec := dec.EmbeddingSpec()
	sh, err := BuildFromGraph(ck.Graph, plan, spec.Norm)
	if err != nil {
		return nil, fmt.Errorf("shard: NewServer: %w", err)
	}
	_, head := dec.InferenceFactors()
	return NewFromParts(sh, ck.Arch, head, spec, opt)
}

// Predict classifies global node ids, routing each to its owner shard.
// Results come back in query order with global ids; per-node answers are
// bit-identical to the unsharded server's at every shard count.
func (s *Server) Predict(nodes []int) ([]serve.Prediction, error) {
	return s.PredictCtx(context.Background(), nodes)
}

// PredictCtx is Predict under a caller context; deadlines and admission
// control apply per owner-shard sub-request.
func (s *Server) PredictCtx(ctx context.Context, nodes []int) ([]serve.Prediction, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shard: Predict: empty node list")
	}
	n := s.sh.Plan.N()
	for _, v := range nodes {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("shard: Predict: node %d outside graph of %d nodes", v, n)
		}
	}
	shards := s.sh.Plan.NumShards()
	locals := make([][]int, shards)
	at := make([][]int, shards)
	for i, v := range nodes {
		o := s.sh.Plan.Owner(v)
		locals[o] = append(locals[o], s.sh.Plan.LocalID(v))
		at[o] = append(at[o], i)
	}
	fanout := 0
	if id, ok := telemetry.TraceFrom(ctx); ok {
		sp := telemetry.DefaultTracer().Span(id, "shard.route")
		defer func() { sp.Attr("shards", fanout).Attr("nodes", len(nodes)).End() }()
	}
	out := make([]serve.Prediction, len(nodes))
	for o := 0; o < shards; o++ {
		if len(locals[o]) == 0 {
			continue
		}
		fanout++
		s.route[o].requests.Inc()
		s.route[o].nodes.Add(uint64(len(locals[o])))
		preds, err := s.subs[o].PredictCtx(ctx, locals[o])
		if err != nil {
			return nil, err
		}
		for j, p := range preds {
			p.Node = nodes[at[o][j]]
			out[at[o][j]] = p
		}
	}
	return out, nil
}

// PredictAll classifies every node of the sharded graph.
func (s *Server) PredictAll() ([]serve.Prediction, error) {
	nodes := make([]int, s.sh.Plan.N())
	for i := range nodes {
		nodes[i] = i
	}
	return s.Predict(nodes)
}

// Arch returns the served architecture's registry name.
func (s *Server) Arch() string { return s.arch }

// Nodes returns the total node count across shards.
func (s *Server) Nodes() int { return s.sh.Plan.N() }

// Classes returns the number of output classes.
func (s *Server) Classes() int { return s.sh.Classes }

// Decoupled reports true: the routed path always serves embedding caches.
func (s *Server) Decoupled() bool { return true }

// Label routes a global node id to its owner shard's label table.
func (s *Server) Label(node int) (int, bool) {
	if node < 0 || node >= s.sh.Plan.N() {
		return 0, false
	}
	shd := s.sh.Shards[s.sh.Plan.Owner(node)]
	if shd.Labels == nil {
		return 0, false
	}
	return shd.Labels[s.sh.Plan.LocalID(node)], true
}

// Stats aggregates the per-shard serving metrics into one fleet snapshot:
// counters sum, latency percentiles take the worst shard (a query is as
// slow as the shard that answers it), and throughput is total nodes over
// the longest-running shard's window.
func (s *Server) Stats() serve.Snapshot {
	var agg serve.Snapshot
	for _, sub := range s.subs {
		snap := sub.Stats()
		agg.Requests += snap.Requests
		agg.Nodes += snap.Nodes
		agg.Batches += snap.Batches
		agg.Shed += snap.Shed
		agg.Deadlines += snap.Deadlines
		agg.Panics += snap.Panics
		if snap.P50 > agg.P50 {
			agg.P50 = snap.P50
		}
		if snap.P99 > agg.P99 {
			agg.P99 = snap.P99
		}
		if snap.Elapsed > agg.Elapsed {
			agg.Elapsed = snap.Elapsed
		}
	}
	if agg.Batches > 0 {
		agg.MeanBatch = float64(agg.Nodes) / float64(agg.Batches)
	}
	if agg.Elapsed > 0 {
		agg.QueriesPerSec = float64(agg.Nodes) / agg.Elapsed.Seconds()
	}
	return agg
}

// Drain gracefully retires every shard server.
func (s *Server) Drain() {
	for _, sub := range s.subs {
		sub.Drain()
	}
}

// Close stops every shard server.
func (s *Server) Close() {
	for _, sub := range s.subs {
		sub.Close()
	}
}

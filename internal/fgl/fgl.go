// Package fgl implements the federated graph learning baselines the AdaFGL
// paper compares against (Sec. II-C, Table VIII): federated wrappers of
// centralized GNNs (FedGCN, FedGloGNN, …), FedGL (global pseudo-label
// supervision), GCFL+ (gradient-similarity clustered aggregation), FedSage+
// (NeighGen-style local subgraph augmentation) and FED-PUB (weight-similarity
// personalised aggregation with personalised masks). Each baseline is
// reimplemented at the mechanism level described in the paper, which is what
// determines its behaviour under topology heterogeneity.
package fgl

import (
	"fmt"
	"math/rand"

	"repro/internal/federated"
	"repro/internal/graph"
	"repro/internal/models"
)

// Method is a federated node-classification algorithm run over the clients'
// private subgraphs.
type Method interface {
	Name() string
	Run(subgraphs []*graph.Graph, cfg models.Config, opt federated.Options) (*federated.Result, error)
}

// FedModel is plain FedAvg over any registered GNN architecture — the
// paper's "federated implementation of representative GNNs" (FedGCN,
// FedGCNII, FedGAMLP, FedGPRGNN, FedGGCN, FedGloGNN), including the local
// correction the paper applies for fair comparison.
type FedModel struct {
	Arch string
	// Correction is the number of local fine-tuning epochs after the final
	// round (paper: "local corrections ... to achieve maximum convergence").
	Correction int
}

// Name implements Method.
func (m FedModel) Name() string { return "Fed" + m.Arch }

// Run implements Method.
func (m FedModel) Run(subgraphs []*graph.Graph, cfg models.Config, opt federated.Options) (*federated.Result, error) {
	build, err := models.BuilderFor(m.Arch)
	if err != nil {
		return nil, err
	}
	clients := federated.BuildClients(subgraphs, build, cfg, opt.Seed)
	if m.Correction > 0 {
		opt.LocalCorrection = m.Correction
	}
	return federated.Run(clients, opt.Seed+1, opt)
}

// MethodByName resolves the names used in the paper's tables.
func MethodByName(name string) (Method, error) {
	switch name {
	case "FedGL":
		return NewFedGL(), nil
	case "GCFL+":
		return NewGCFL(), nil
	case "FedSage+":
		return NewFedSage(), nil
	case "FED-PUB":
		return NewFedPub(), nil
	}
	if len(name) > 3 && name[:3] == "Fed" {
		if _, err := models.BuilderFor(name[3:]); err == nil {
			return FedModel{Arch: name[3:], Correction: 20}, nil
		}
	}
	if _, err := models.BuilderFor(name); err == nil {
		return FedModel{Arch: name, Correction: 20}, nil
	}
	return nil, fmt.Errorf("fgl: unknown method %q", name)
}

// freshRNG derives a deterministic rng from run options and a salt.
func freshRNG(opt federated.Options, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(opt.Seed*1_000_003 + salt))
}

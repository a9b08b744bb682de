// Package federated implements the multi-client collaborative training
// substrate of the AdaFGL paper: FedAvg orchestration (Eq. 3–4) over
// graph-bound client models, partial client participation, per-round
// convergence recording (Figs. 8/9/11) and communication accounting
// (Table VIII). There is one aggregation engine, Server: a buffered event
// loop that commits a round once K of the N sampled participants have
// uploaded, discounts late updates FedAsync-style and orders arrivals on a
// seeded virtual clock, so runs stay bit-reproducible for any worker count.
// Synchronous FedAvg is its K = N configuration, the zero value of
// Options.Async: nothing is ever stale and a commit is Eq. (4) exactly.
package federated

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// Client is one federated participant holding a private subgraph and a
// local model bound to it. If the subgraph carries an inductive Eval graph
// (graph.MakeInductive), evaluation runs on the full graph with the trained
// parameters transplanted into a second model instance.
type Client struct {
	ID    int
	Graph *graph.Graph
	Model models.Model
	cfg   models.Config

	build     models.Builder
	evalModel models.Model
	evalRNG   *rand.Rand
}

// NewClient builds a client with its own model instance. The model is built
// on a private RNG stream derived from rng, never on rng itself: the model
// keeps drawing from its RNG at training time (dropout), so sharing one
// source across clients would make concurrent local training racy and its
// results dependent on scheduling order.
func NewClient(id int, g *graph.Graph, build models.Builder, cfg models.Config, rng *rand.Rand) *Client {
	modelRNG := rand.New(rand.NewSource(rng.Int63()))
	evalRNG := rand.New(rand.NewSource(rng.Int63()))
	return &Client{
		ID: id, Graph: g, Model: build(g, cfg, modelRNG), cfg: cfg,
		build: build, evalRNG: evalRNG,
	}
}

// TrainLocal runs epochs of local full-batch training (Eq. 3) and returns
// the last loss.
func (c *Client) TrainLocal(epochs int) float64 {
	opt := c.cfg.NewOptimizer()
	var loss float64
	for e := 0; e < epochs; e++ {
		loss = models.TrainEpoch(c.Model, opt, c.Graph.Labels, c.Graph.TrainMask)
	}
	return loss
}

// TrainSize returns the client's labeled-data size n_i used as the FedAvg
// aggregation weight.
func (c *Client) TrainSize() int { return graph.CountMask(c.Graph.TrainMask) }

// TestAccuracy evaluates the client's current model on its local test mask.
// Under the inductive protocol the trained parameters are transplanted into
// a model bound to the full evaluation graph, so unseen test nodes are
// classified with their true (previously hidden) neighbourhoods.
func (c *Client) TestAccuracy() float64 {
	if c.Graph.Eval == nil {
		return models.Accuracy(c.Model, c.Graph.Labels, c.Graph.TestMask)
	}
	if c.evalModel == nil {
		c.evalModel = c.build(c.Graph.Eval, c.cfg, c.evalRNG)
	}
	if err := nn.Unflatten(c.evalModel, nn.Flatten(c.Model)); err != nil {
		return 0
	}
	return models.Accuracy(c.evalModel, c.Graph.Eval.Labels, c.Graph.Eval.TestMask)
}

// TestSize returns the number of test nodes scoring this client (full graph
// under the inductive protocol).
func (c *Client) TestSize() int {
	if c.Graph.Eval != nil {
		return graph.CountMask(c.Graph.Eval.TestMask)
	}
	return graph.CountMask(c.Graph.TestMask)
}

// Options configures a federated run. The zero value is not usable (zero
// rounds, zero participation); start from DefaultOptions (the scale the
// runnable examples use) or PaperOptions (Sec. IV-A's full protocol) and
// override fields.
type Options struct {
	// Rounds is the number of aggregation rounds (server commits). Must be
	// >= 1. DefaultOptions: 30 (the examples' scale); PaperOptions: 100.
	Rounds int
	// LocalEpochs is the number of full-batch local training epochs each
	// participant runs per round (Eq. 3). 0 makes every round a parameter
	// no-op. DefaultOptions: 3; PaperOptions: 5.
	LocalEpochs int
	// Participation is the fraction of clients sampled uniformly (without
	// replacement) each round, in (0, 1]; at least one client always
	// participates. Both defaults use 1.0 (full participation, the paper's
	// main protocol; Fig. 11 sweeps it down to 0.2).
	Participation float64
	// LocalCorrection fine-tunes each client's copy of the final global
	// model locally for this many epochs before evaluation (the paper's
	// "local corrections for all federated implementations of GNNs").
	// 0 (both defaults) evaluates the broadcast model as-is.
	LocalCorrection int
	// Seed drives participation sampling and, through BuildClients, every
	// client's private RNG streams; two runs with equal Options and client
	// fleets are bit-identical. Both defaults use 1.
	Seed int64
	// Async configures how early the engine commits (K-of-N buffering, the
	// staleness discount, the speed model, fault injection). The zero value
	// commits only when every participant has arrived: synchronous FedAvg.
	Async AsyncOptions
	// Robust configures the robust-aggregation defences (update-norm
	// clipping, coordinate-median / trimmed-mean alternatives to FedAvg,
	// seeded DP noise). The zero value keeps plain FedAvg bit-identically.
	Robust RobustOptions
}

// Validate rejects out-of-range or non-finite options with named errors.
// Server.Run calls it, as does every baseline that drives its own round loop.
func (o Options) Validate() error {
	if o.Rounds < 1 {
		return fmt.Errorf("federated: options: Rounds %d must be >= 1", o.Rounds)
	}
	if o.LocalEpochs < 0 {
		return fmt.Errorf("federated: options: LocalEpochs %d must be >= 0", o.LocalEpochs)
	}
	if o.LocalCorrection < 0 {
		return fmt.Errorf("federated: options: LocalCorrection %d must be >= 0", o.LocalCorrection)
	}
	if !(o.Participation > 0 && o.Participation <= 1) {
		return fmt.Errorf("federated: options: Participation %v outside (0, 1]", o.Participation)
	}
	if o.Async.MinUpdates < 0 {
		return fmt.Errorf("federated: options: Async.MinUpdates %d must be >= 0", o.Async.MinUpdates)
	}
	if !(o.Async.Staleness >= 0) || math.IsInf(o.Async.Staleness, 0) {
		return fmt.Errorf("federated: options: Async.Staleness %v must be finite and >= 0", o.Async.Staleness)
	}
	if sp := o.Async.Speed; sp != nil {
		// The speed model alone sets the commit schedule: Jitter >= 1 can
		// stamp a finish before its own dispatch, a non-finite factor stamps
		// one at infinity or NaN.
		if !(sp.Jitter >= 0 && sp.Jitter < 1) {
			return fmt.Errorf("federated: options: Async.Speed: Jitter %v outside [0, 1)", sp.Jitter)
		}
		for i, f := range sp.Slowdown {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("federated: options: Async.Speed: Slowdown[%d] %v must be finite", i, f)
			}
		}
	}
	return o.Robust.validate()
}

// DefaultOptions is the practical scale the runnable examples use
// (examples/quickstart runs it verbatim): 30 rounds of 3 local epochs with
// full participation converge on every laptop-scale synthetic dataset in
// seconds. Use PaperOptions for the full Sec. IV-A protocol.
func DefaultOptions() Options {
	return Options{Rounds: 30, LocalEpochs: 3, Participation: 1.0, LocalCorrection: 0, Seed: 1}
}

// PaperOptions mirrors Sec. IV-A: 100 rounds, 5 local epochs, full
// participation.
func PaperOptions() Options {
	return Options{Rounds: 100, LocalEpochs: 5, Participation: 1.0, LocalCorrection: 0, Seed: 1}
}

// Result summarises a federated run.
type Result struct {
	// TestAcc is the test-size-weighted mean client test accuracy of the
	// final (optionally locally corrected) models.
	TestAcc float64
	// PerClient holds each client's final test accuracy (Fig. 2(d)).
	PerClient []float64
	// RoundAcc records the weighted test accuracy of the global model after
	// every aggregation round (Figs. 8/9).
	RoundAcc []float64
	// GlobalParams is the final aggregated model — AdaFGL's federated
	// knowledge extractor.
	GlobalParams []float64
	// BytesPerRound is the communication volume of one round: every
	// participating client uploads and receives one parameter vector
	// (8 bytes per float64). A round commits after Async.MinUpdates uploads,
	// so with K < N the volume scales with K instead of the participant
	// count.
	BytesPerRound int
	// RoundTime is the time on the virtual clock, in SpeedModel units, at
	// which each aggregation round committed; one entry per committed round.
	// Comparing a K < N run's RoundTime against a MinUpdates = N run of the
	// same fleet gives the convergence-vs-simulated-time tradeoff directly.
	RoundTime []float64
	// MeanStaleness is the mean staleness, in committed rounds, of every
	// update aggregated during the run; 0 whenever commits wait for all
	// participants (MinUpdates = N).
	MeanStaleness float64
	// DispatchedUpdates counts every local-training job the server
	// dispatched. The data-mass ledger always balances exactly:
	// DispatchedUpdates = CommittedUpdates + DroppedUpdates +
	// StragglerUpdates.
	DispatchedUpdates int
	// CommittedUpdates counts the updates that reached an aggregate.
	CommittedUpdates int
	// DroppedUpdates counts updates lost to crash faults (dispatched but
	// never aggregated). Always 0 without a fault schedule.
	DroppedUpdates int
	// DroppedWeight is the total data mass n_i of the dropped updates.
	DroppedWeight float64
	// StragglerUpdates counts updates still in flight when the run's last
	// round committed (dispatched, neither aggregated nor lost).
	StragglerUpdates int
	// MaxUpdateNorm is the largest per-update delta norm actually committed
	// when Options.Robust.ClipNorm > 0 (so it never exceeds ClipNorm);
	// 0 when clipping is off.
	MaxUpdateNorm float64
}

// Evaluate is the one evaluation reduction every federated method shares:
// load paramsFor(ci) into client ci's model (the same vector for all under
// FedAvg, one each for personalised or clustered methods), fine-tune it for
// correction local epochs (the paper's "local correction"; 0 = none), score
// it with Client.TestAccuracy and return the test-size-weighted mean beside
// the per-client accuracies. Clients fan out on the worker pool — paramsFor
// is called concurrently and must only read — and are reduced in client
// order, so the result is bit-identical for every worker count. A vector
// that does not fit a client's model is an error, never a silent 0.
func Evaluate(clients []*Client, paramsFor func(ci int) []float64, correction int) (acc float64, perClient []float64, err error) {
	perClient = make([]float64, len(clients))
	grp := parallel.NewGroup(parallel.Workers())
	for ci, c := range clients {
		grp.Go(func() error {
			if err := nn.Unflatten(c.Model, paramsFor(ci)); err != nil {
				return fmt.Errorf("federated: evaluate client %d: %w", c.ID, err)
			}
			if correction > 0 {
				c.TrainLocal(correction)
			}
			perClient[ci] = c.TestAccuracy()
			return nil
		})
	}
	if err := grp.Wait(); err != nil {
		return 0, nil, err
	}
	var weighted, total float64
	for ci, c := range clients {
		w := float64(c.TestSize())
		weighted += perClient[ci] * w
		total += w
	}
	if total > 0 {
		acc = weighted / total
	}
	return acc, perClient, nil
}

// Run executes opt on a fresh Server over clients; seed drives participation
// sampling.
func Run(clients []*Client, seed int64, opt Options) (*Result, error) {
	return NewServer(clients, seed).Run(opt)
}

// BuildClients constructs one client per subgraph with a shared architecture.
func BuildClients(subgraphs []*graph.Graph, build models.Builder, cfg models.Config, seed int64) []*Client {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Client, len(subgraphs))
	for i, g := range subgraphs {
		out[i] = NewClient(i, g, build, cfg, rng)
	}
	return out
}

package federated

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/nn"
	"repro/internal/parallel"
)

// AsyncOptions configures how far Server departs from synchronous FedAvg:
// the commit threshold, the staleness discount, the speed model and the
// faults. The zero value is synchronous FedAvg.
type AsyncOptions struct {
	// MinUpdates is the K of buffered K-of-N aggregation: the server commits
	// a round as soon as K client updates are buffered instead of waiting
	// for every participant. 0 (or any value >= the per-round participant
	// count) commits only when all participants have arrived — the full
	// synchronous barrier of textbook FedAvg.
	MinUpdates int
	// Staleness is the α of the FedAsync-style discount α/(1+s): an update
	// trained from a global model s commits old joins the aggregate with
	// weight n_i·α/(1+s). 0 means 1.0, under which fresh updates (s = 0)
	// carry exactly their FedAvg weight n_i — so MinUpdates = N, where every
	// update is fresh, is Eq. (4) bit for bit. Lower α shrinks every buffered
	// update toward the fresh participants, higher staleness shrinks
	// stragglers harder.
	Staleness float64
	// Speed is the simulated per-client duration model driving the virtual
	// clock. Nil runs every client at nominal speed (duration = local epochs
	// × labeled-node count, no jitter).
	Speed *SpeedModel
	// Faults is the fault-injection schedule: per-client crash, leave,
	// join and corrupt events ordered by the virtual clock. The zero value
	// injects nothing.
	Faults Faults
}

// SpeedModel deterministically assigns a simulated duration to every local
// training job, driving Server's virtual clock. A job's duration is
//
//	LocalEpochs × max(1, train size) × Slowdown[client] × (1 + Jitter·u)
//
// with u drawn uniformly from [-1, 1) on a stream seeded by (Seed, client),
// so durations — and therefore the whole commit schedule — are a pure
// function of the model and the dispatch sequence, never of worker count or
// machine load. Time units are abstract ("one epoch over one labeled node");
// only ratios between clients and engines are meaningful.
type SpeedModel struct {
	// Slowdown multiplies client i's durations by Slowdown[i] (1.0 =
	// nominal). Clients beyond len(Slowdown), and entries <= 0, run at 1.0.
	// A skewed fleet — e.g. one entry at 4 — reproduces the straggler
	// scenarios K < N commits exist for.
	Slowdown []float64
	// Jitter is the relative amplitude of per-dispatch duration noise in
	// [0, 1); 0 disables it.
	Jitter float64
	// Seed seeds the per-client jitter streams.
	Seed int64
}

// duration returns the simulated cost of one dispatch of client index ci
// whose nominal work (epochs × labeled nodes) is work. jr is the client's
// private jitter stream; it is only consumed when Jitter > 0.
func (m *SpeedModel) duration(work float64, ci int, jr *rand.Rand) float64 {
	d := work
	if ci < len(m.Slowdown) && m.Slowdown[ci] > 0 {
		d *= m.Slowdown[ci]
	}
	if m.Jitter > 0 {
		d *= 1 + m.Jitter*(2*jr.Float64()-1)
	}
	return d
}

// Server is the federated engine: buffered K-of-N FedAvg over a set of
// clients (see Run), which at the default K = N is synchronous FedAvg.
type Server struct {
	Clients []*Client
	rng     *rand.Rand
}

// NewServer wraps the clients; the rng drives participation sampling, one
// permutation per commit whatever K is.
func NewServer(clients []*Client, seed int64) *Server {
	return &Server{Clients: clients, rng: rand.New(rand.NewSource(seed))}
}

// checkClients validates a fleet for aggregation (non-empty, uniform
// parameter dimension) and returns the shared dimension.
func checkClients(clients []*Client) (int, error) {
	if len(clients) == 0 {
		return 0, fmt.Errorf("federated: no clients")
	}
	dim := len(nn.Flatten(clients[0].Model))
	for _, c := range clients[1:] {
		if len(nn.Flatten(c.Model)) != dim {
			return 0, fmt.Errorf("federated: client %d parameter dim mismatch", c.ID)
		}
	}
	return dim, nil
}

// asyncJob tracks one dispatched local-training task from broadcast to
// arrival at the server.
type asyncJob struct {
	client  int     // index into Clients
	version int     // global model version trained from
	seq     int     // global dispatch sequence number
	finish  float64 // arrival time on the virtual clock
	weight  float64 // FedAvg data-size weight n_i
	done    chan struct{}
	params  []float64
	base    []float64 // the broadcast snapshot trained from (clip reference)
	lost    bool      // client crashed mid-flight: discard at harvest
	err     error
}

// Run executes buffered FedAvg for opt.Rounds commits: broadcast, parallel
// local training (Eq. 3), data-size-weighted aggregation (Eq. 4).
//
// Scheduling is event-driven on the seeded virtual clock: every dispatched
// client trains concurrently (bounded by parallel.Workers()), but the server
// harvests arrivals strictly in (virtual finish time, dispatch sequence)
// order and aggregates each commit's buffer in dispatch order — so the
// sequence of global models depends only on the seed and the speed model,
// never on scheduling. Each commit averages the K buffered updates with
// weights n_i·α/(1+staleness), plus the current global anchored by the data
// mass of clients still in flight (FedBuff-style, so a small buffer cannot
// yank the model toward one client). Contributors are then re-broadcast the
// new global model and re-dispatched, while still-running clients keep
// training on the parameters they were given.
//
// At K = N (the default) nothing is in flight at a commit, so the anchor
// weight is zero, every staleness is 0, the default discount is exactly 1
// and the commit is the weighted mean of the wave in participant order —
// synchronous FedAvg, bit for bit; the speed model only labels RoundTime.
//
// Round accuracies are evaluated while no client is training (evaluation
// overwrites every client's model): after every commit at K = N, otherwise
// once the fleet is next idle, at the latest after the schedule. Evaluation
// is RNG-free, so when it runs cannot change a result.
//
// A non-empty opt.Async.Faults schedule overlays crash/leave/join/corrupt
// events on the same virtual timeline: events at time T apply before
// arrivals stamped at T, crashed clients lose their in-flight update and
// later rejoin from the stale broadcast they last received (their first
// post-rejoin update paying the staleness discount), left clients stop
// being re-dispatched, and corrupted clients rewrite their uploads with the
// installed Attack. When a fault leaves fewer than K arrivals reachable the
// commit degrades to what is actually achievable, and a run whose fleet
// dies entirely ends early with the rounds committed so far. Faulted runs
// remain bit-reproducible for any worker count; opt.Robust's clipping,
// alternative aggregators and seeded noise apply to every commit.
func (s *Server) Run(opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	dim, err := checkClients(s.Clients)
	if err != nil {
		return nil, err
	}
	var ft *faultRun
	if !opt.Async.Faults.Empty() {
		if ft, err = newFaultRun(opt.Async.Faults, len(s.Clients)); err != nil {
			return nil, err
		}
	}
	// Clients sampled per commit: at least one.
	nPart := max(1, int(float64(len(s.Clients))*opt.Participation))
	k := opt.Async.MinUpdates
	if k == 0 || k > nPart {
		k = nPart
	}
	alpha := opt.Async.Staleness
	if alpha == 0 {
		alpha = 1
	}
	clock := newVirtualClock(opt.Async.Speed, len(s.Clients))

	global := nn.Flatten(s.Clients[0].Model) // initial broadcast model
	res := &Result{BytesPerRound: k * dim * 8 * 2}
	noise := newNoiseStream(opt)

	var (
		grp      = parallel.NewGroup(parallel.Workers())
		inflight []*asyncJob
		buffer   []*asyncJob
		busy     = make([]bool, len(s.Clients))
		now      float64
		version  int
		seq      int
		// Per-client stale-resume state, used only under faults: the
		// broadcast (and its version) each client last received, so a
		// crashed client rejoins from the parameters it actually holds.
		lastBcast [][]float64
		lastVer   []int
	)
	if ft != nil {
		lastBcast = make([][]float64, len(s.Clients))
		lastVer = make([]int, len(s.Clients))
	}
	dispatch := func(ci int) {
		c := s.Clients[ci]
		w := float64(max(1, c.TrainSize()))
		job := &asyncJob{
			client: ci, version: version, seq: seq, weight: w,
			done: make(chan struct{}),
		}
		clock.stamp(job, float64(opt.LocalEpochs)*w)
		seq++
		busy[ci] = true
		inflight = append(inflight, job)
		// The broadcast this client trains from. Every commit allocates a
		// fresh global and none is written after its first dispatch, so the
		// slice is shared, not copied, while later commits move on.
		bcast := global
		var atk Attack
		if ft != nil {
			if ft.stale[ci] && lastBcast[ci] != nil {
				// Post-crash rejoin: resume from the stale broadcast the
				// client last received; the old version makes its next
				// update pay the staleness discount naturally.
				bcast = lastBcast[ci]
				job.version = lastVer[ci]
			}
			ft.stale[ci] = false
			lastBcast[ci] = bcast
			lastVer[ci] = job.version
			atk = ft.attack[ci]
		}
		job.base = bcast
		grp.Go(func() error {
			defer close(job.done)
			if err := nn.Unflatten(c.Model, bcast); err != nil {
				job.err = fmt.Errorf("federated: broadcast to client %d: %w", c.ID, err)
				return job.err
			}
			c.TrainLocal(opt.LocalEpochs)
			params := nn.Flatten(c.Model)
			if atk.Kind != AttackNone {
				params = atk.apply(bcast, params)
			}
			job.params = params
			return nil
		})
	}

	// Initial wave. Time-zero fault events (corrupt-from-start, down-at-start
	// joins) apply before anything is dispatched.
	if ft != nil {
		ft.process(0, nil)
	}
	perm := s.rng.Perm(len(s.Clients))
	sampled := perm[:nPart]
	for _, ci := range sampled {
		if ft != nil && ft.down[ci] {
			continue
		}
		dispatch(ci)
	}

	// Committed globals whose round accuracy is still owed; evaluated only
	// while nothing is in flight — at K = N, after every commit.
	var pending [][]float64
	flush := func() error {
		for _, g := range pending {
			acc, _, err := Evaluate(s.Clients, func(int) []float64 { return g }, 0)
			if err != nil {
				return err
			}
			res.RoundAcc = append(res.RoundAcc, acc)
			telRoundAcc.Set(acc)
		}
		pending = pending[:0]
		return nil
	}
	var staleSum float64
	var staleCount int
	for commit := 0; commit < opt.Rounds; commit++ {
		fleetDead := false
		for len(buffer) < k {
			if ft != nil {
				if len(inflight) == 0 {
					// No arrival can happen. Commit whatever the faults let
					// arrive; with an empty buffer, idle forward to the next
					// scheduled event (a join may revive the fleet) or — out
					// of events — end the run early.
					if len(buffer) > 0 {
						break
					}
					if ft.next < len(ft.events) {
						now = ft.events[ft.next].Time
						clock.advance(now)
						ft.process(now, inflight)
						for _, ci := range sampled {
							if !busy[ci] && !ft.down[ci] {
								dispatch(ci)
							}
						}
						continue
					}
					fleetDead = true
					break
				}
				// Apply every event up to the next arrival before
				// harvesting it: a crash scheduled first loses that update.
				// Lost jobs stay in flight until harvested here, so their
				// clients free up for post-rejoin dispatch deterministically.
				ft.process(peekNextFinish(inflight), inflight)
			}
			job := clock.harvest(&inflight)
			if job.err != nil {
				grp.Wait() // let in-flight clients finish before unwinding
				return nil, job.err
			}
			now = job.finish
			busy[job.client] = false
			if job.lost {
				res.DroppedUpdates++
				res.DroppedWeight += job.weight
				continue
			}
			buffer = append(buffer, job)
		}
		if fleetDead {
			break
		}
		// Commit: aggregate the buffer in dispatch order (not arrival
		// order), so when the buffer spans one whole wave the summation
		// order — and hence the float result — is FedAvg's participant order.
		sort.Slice(buffer, func(i, j int) bool { return buffer[i].seq < buffer[j].seq })
		updates := make([][]float64, 0, len(buffer)+1)
		weights := make([]float64, 0, len(buffer)+1)
		for _, u := range buffer {
			w := u.weight
			staleness := version - u.version
			if d := alpha / (1 + float64(staleness)); d != 1 {
				w *= d
			}
			staleSum += float64(staleness)
			staleCount++
			if opt.Robust.ClipNorm > 0 {
				if n := clipDelta(u.params, u.base, opt.Robust.ClipNorm); n > res.MaxUpdateNorm {
					res.MaxUpdateNorm = n
				}
			}
			updates = append(updates, u.params)
			weights = append(weights, w)
		}
		// Clients still training anchor the aggregate with their data mass
		// through the current global (their last incorporated state), so a
		// small buffer cannot yank the model toward one client. When every
		// participant has arrived (K = N) the anchor weight is zero and the
		// commit reduces to the exact synchronous weighted mean. The anchor
		// joins as a pseudo-update so every aggregator treats it uniformly.
		var anchorW float64
		for _, u := range inflight {
			if !u.lost {
				anchorW += u.weight
			}
		}
		if anchorW > 0 {
			updates = append(updates, global)
			weights = append(weights, anchorW)
		}
		global = opt.Robust.aggregate(dim, updates, weights)
		if noise != nil {
			noise.add(global)
		}
		version++
		buffer = buffer[:0]
		res.RoundTime = append(res.RoundTime, now)
		pending = append(pending, global)
		meanStale := 0.0
		if staleCount > 0 {
			meanStale = staleSum / float64(staleCount)
		}
		recordCommit(staleCount, res.DroppedUpdates, meanStale)
		if len(inflight) == 0 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		if commit+1 < opt.Rounds {
			// Re-broadcast to every idle sampled participant; busy clients
			// keep training on their stale snapshot. One permutation per
			// commit, whatever K is.
			perm := s.rng.Perm(len(s.Clients))
			sampled = perm[:nPart]
			for _, ci := range sampled {
				if busy[ci] {
					continue
				}
				if ft != nil && ft.down[ci] {
					continue
				}
				dispatch(ci)
			}
		}
	}
	// Stragglers past the last commit never contribute; wait them out so the
	// evaluations below cannot race their model writes.
	if err := grp.Wait(); err != nil {
		return nil, err
	}
	res.DispatchedUpdates = seq
	res.CommittedUpdates = staleCount
	for _, job := range inflight {
		if job.lost {
			res.DroppedUpdates++
			res.DroppedWeight += job.weight
		} else {
			res.StragglerUpdates++
		}
	}
	if staleCount > 0 {
		res.MeanStaleness = staleSum / float64(staleCount)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	res.GlobalParams = global
	res.TestAcc, res.PerClient, err = Evaluate(s.Clients, func(int) []float64 { return global }, opt.LocalCorrection)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// peekNextFinish returns the finish stamp of the job the virtual clock will
// harvest next — min (finish, seq), matching virtualClock.harvest — so fault
// events can be applied up to (and including) that instant first.
func peekNextFinish(inflight []*asyncJob) float64 {
	best := inflight[0]
	for _, j := range inflight[1:] {
		if j.finish < best.finish || (j.finish == best.finish && j.seq < best.seq) {
			best = j
		}
	}
	return best.finish
}

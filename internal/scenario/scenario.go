// Package scenario is the registry of named, seeded, reproducible
// federation failure scenarios: steady operation, client churn with
// mid-training joins and leaves, scheduled participation waves,
// crash-and-rejoin with stale parameters, straggler skew, and byzantine
// arms with label-flip / sign-flip / scaled-update attackers. A scenario
// compiles a textual spec ("churn:leave=2,leaveat=0.4") into a fault
// schedule on the federated engine's virtual clock (federated.Faults) plus any
// data-level corruption (label flips on attacker subgraphs), so every
// scenario run is bit-reproducible for any worker count at a fixed seed.
// adafgl-bench's chaos experiment and examples/chaos both draw from this
// registry, mirroring how the paper's tables share one transductive /
// inductive / inject scenario split.
package scenario

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/federated"
	"repro/internal/graph"
)

// Scenario is one reproducible federation failure scenario: a name, a
// one-line description, resolved parameters (registry defaults overridden
// by the spec that built it) and a compiled Apply behaviour.
type Scenario struct {
	// Name is the registry key ("steady", "churn", "byz-signflip", ...).
	Name string
	// Title is the one-line description tables and listings print.
	Title string
	// Params holds the scenario's resolved numeric parameters.
	Params map[string]float64

	apply func(s *Scenario, subs []*graph.Graph, opt *federated.Options) error
}

// spec is one registry entry: the blueprint a Scenario is instantiated from.
type spec struct {
	name     string
	title    string
	defaults map[string]float64
	apply    func(s *Scenario, subs []*graph.Graph, opt *federated.Options) error
}

// registry lists every scenario in presentation order.
var registry = []spec{
	{
		name:     "steady",
		title:    "fault-free reference (engine untouched)",
		defaults: map[string]float64{},
		apply: func(s *Scenario, subs []*graph.Graph, opt *federated.Options) error {
			return nil
		},
	},
	{
		name:  "straggler",
		title: "straggler skew: slow clients stretch the commit schedule",
		// factor multiplies the stragglers' simulated durations; clients is
		// how many clients (the highest indices) straggle.
		defaults: map[string]float64{"factor": 4, "clients": 1},
		apply:    applyStraggler,
	},
	{
		name:  "churn",
		title: "mid-training churn: clients leave, late clients join",
		// leave clients (highest indices) leave at leaveat×horizon; join
		// clients (lowest indices) start down and join at joinat×horizon.
		defaults: map[string]float64{"leave": 1, "leaveat": 0.5, "join": 1, "joinat": 0.25},
		apply:    applyChurn,
	},
	{
		name:  "waves",
		title: "scheduled participation waves: groups alternate on a fixed period",
		// groups round-robin partitions the fleet; each wave lasts period
		// nominal rounds with exactly one group up.
		defaults: map[string]float64{"groups": 2, "period": 2},
		apply:    applyWaves,
	},
	{
		name:  "crashrejoin",
		title: "crash and rejoin: clients crash mid-flight, rejoin with stale params",
		// clients crash (highest indices) at at×horizon and rejoin after
		// down×horizon more, resuming from the broadcast they last held.
		defaults: map[string]float64{"clients": 1, "at": 0.25, "down": 0.35},
		apply:    applyCrashRejoin,
	},
	{
		name:  "byz-labelflip",
		title: "byzantine data poisoning: m clients train on flipped labels",
		// m attacker clients (highest indices) have frac of their training
		// labels deterministically flipped to a different class.
		defaults: map[string]float64{"m": 1, "frac": 1},
		apply:    applyLabelFlip,
	},
	{
		name:  "byz-signflip",
		title: "byzantine sign-flip: m clients upload negated update deltas",
		// m attacker clients (highest indices) upload base − (local − base).
		defaults: map[string]float64{"m": 1},
		apply:    applySignFlip,
	},
	{
		name:  "byz-scale",
		title: "byzantine scaled update: m clients blow their deltas up by factor",
		// m attacker clients (highest indices) upload base + factor·delta.
		defaults: map[string]float64{"m": 1, "factor": 10},
		apply:    applyScale,
	},
}

// Names returns every registered scenario name in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, sp := range registry {
		out[i] = sp.name
	}
	return out
}

// Parse compiles a scenario spec of the form "name" or
// "name:key=val,key=val" against the registry, applying parameter overrides
// to a fresh copy of the scenario's defaults. Unknown names, a pair without
// "=" or with an empty key, a key absent from the defaults, and a value that
// is not a finite number all fail with "scenario:"-prefixed errors.
func Parse(specStr string) (*Scenario, error) {
	name, args, _ := strings.Cut(specStr, ":")
	i := slices.IndexFunc(registry, func(sp spec) bool { return sp.name == name })
	if i < 0 {
		return nil, fmt.Errorf("scenario: unknown scenario %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	entry := &registry[i]
	params := maps.Clone(entry.defaults)
	if args != "" {
		for _, kv := range strings.Split(args, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok || key == "" {
				return nil, fmt.Errorf("scenario: %s: malformed parameter %q (want key=value)", name, kv)
			}
			if _, known := entry.defaults[key]; !known {
				return nil, fmt.Errorf("scenario: %s: unknown parameter %q (known: %s)", name, key, strings.Join(slices.Sorted(maps.Keys(entry.defaults)), ", "))
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("scenario: %s: parameter %s=%q is not a finite number", name, key, val)
			}
			params[key] = f
		}
	}
	return &Scenario{Name: name, Title: entry.title, Params: params, apply: entry.apply}, nil
}

// Spec renders the scenario back to its canonical "name:key=val,..." form
// (parameters sorted by key), which Parse reads back to an equal scenario;
// an empty parameter set renders as the bare name.
func (s *Scenario) Spec() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := slices.Sorted(maps.Keys(s.Params))
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, s.Params[k])
	}
	return s.Name + ":" + strings.Join(parts, ",")
}

// Apply configures opt (and, for data-poisoning scenarios, the subgraphs in
// place) to run this scenario over the given fleet. Scenarios that inject
// faults or speed skew write opt.Async.Faults / opt.Async.Speed — their
// schedules live on the engine's virtual clock — and leave the caller's K
// and staleness discount alone; "steady" and the data-level byz-labelflip
// leave opt untouched. Event times are laid out in units of the
// fleet's nominal commit period (LocalEpochs × slowest client's train size),
// making one spec reproducible across dataset scales. Apply validates its
// parameters against the fleet and fails with "scenario:"-prefixed errors;
// on error opt and the subgraphs are unchanged.
func (s *Scenario) Apply(subs []*graph.Graph, opt *federated.Options) error {
	if len(subs) == 0 {
		return fmt.Errorf("scenario: %s: empty fleet", s.Name)
	}
	if opt == nil {
		return fmt.Errorf("scenario: %s: nil options", s.Name)
	}
	if opt.Rounds < 1 {
		return fmt.Errorf("scenario: %s: options need Rounds >= 1, got %d", s.Name, opt.Rounds)
	}
	return s.apply(s, subs, opt)
}

// intParam resolves an integral parameter in [lo, hi], rejecting fractional
// or out-of-range values.
func (s *Scenario) intParam(key string, lo, hi int) (int, error) {
	v := s.Params[key]
	if v != math.Trunc(v) {
		return 0, fmt.Errorf("scenario: %s: parameter %s=%v must be an integer", s.Name, key, v)
	}
	n := int(v)
	if n < lo || n > hi {
		return 0, fmt.Errorf("scenario: %s: parameter %s=%d outside [%d, %d]", s.Name, key, n, lo, hi)
	}
	return n, nil
}

// fracParam resolves a parameter constrained to [lo, hi].
func (s *Scenario) fracParam(key string, lo, hi float64) (float64, error) {
	v := s.Params[key]
	if !(v >= lo && v <= hi) {
		return 0, fmt.Errorf("scenario: %s: parameter %s=%v outside [%v, %v]", s.Name, key, v, lo, hi)
	}
	return v, nil
}

// commitPeriod estimates the fleet's nominal commit period — LocalEpochs ×
// the slowest client's labeled-node count, the exact duration model the
// virtual clock charges at nominal speed — with a floor of 1 time unit so
// zero-epoch runs still order events sanely.
func commitPeriod(subs []*graph.Graph, opt *federated.Options) float64 {
	maxW := 1
	for _, g := range subs {
		if w := graph.CountMask(g.TrainMask); w > maxW {
			maxW = w
		}
	}
	return float64(max(1, opt.LocalEpochs) * maxW)
}

// horizon is the run's nominal virtual duration: Rounds commit periods.
func horizon(subs []*graph.Graph, opt *federated.Options) float64 {
	return float64(opt.Rounds) * commitPeriod(subs, opt)
}

func applyStraggler(s *Scenario, subs []*graph.Graph, opt *federated.Options) error {
	n := len(subs)
	count, err := s.intParam("clients", 1, n)
	if err != nil {
		return err
	}
	factor, err := s.fracParam("factor", 1, 1e6)
	if err != nil {
		return err
	}
	slowdown := make([]float64, n)
	for i := range slowdown {
		slowdown[i] = 1
	}
	for i := n - count; i < n; i++ {
		slowdown[i] = factor
	}
	opt.Async.Speed = &federated.SpeedModel{Slowdown: slowdown, Seed: opt.Seed}
	return nil
}

func applyChurn(s *Scenario, subs []*graph.Graph, opt *federated.Options) error {
	n := len(subs)
	leave, err := s.intParam("leave", 0, n)
	if err != nil {
		return err
	}
	join, err := s.intParam("join", 0, n)
	if err != nil {
		return err
	}
	if leave+join >= n {
		return fmt.Errorf("scenario: churn: leave=%d + join=%d must keep at least one stable client of %d", leave, join, n)
	}
	leaveAt, err := s.fracParam("leaveat", 0, 1)
	if err != nil {
		return err
	}
	joinAt, err := s.fracParam("joinat", 0, 1)
	if err != nil {
		return err
	}
	h := horizon(subs, opt)
	var f federated.Faults
	for i := 0; i < join; i++ {
		f.DownAtStart = append(f.DownAtStart, i)
		f.Events = append(f.Events, federated.FaultEvent{Time: joinAt * h, Client: i, Kind: federated.FaultJoin})
	}
	for i := n - leave; i < n; i++ {
		f.Events = append(f.Events, federated.FaultEvent{Time: leaveAt * h, Client: i, Kind: federated.FaultLeave})
	}
	opt.Async.Faults = f
	return nil
}

func applyWaves(s *Scenario, subs []*graph.Graph, opt *federated.Options) error {
	n := len(subs)
	groups, err := s.intParam("groups", 2, n)
	if err != nil {
		return err
	}
	period, err := s.fracParam("period", 0.25, 1e6)
	if err != nil {
		return err
	}
	group := func(ci int) int { return ci % groups }
	h := horizon(subs, opt)
	waveLen := period * commitPeriod(subs, opt)
	var f federated.Faults
	// Group 0 opens; everyone else waits for their wave.
	for ci := 0; ci < n; ci++ {
		if group(ci) != 0 {
			f.DownAtStart = append(f.DownAtStart, ci)
		}
	}
	up := 0 // the group currently up
	for wave := 1; float64(wave)*waveLen < h; wave++ {
		t := float64(wave) * waveLen
		next := wave % groups
		if next == up {
			continue
		}
		for ci := 0; ci < n; ci++ {
			switch group(ci) {
			case up:
				f.Events = append(f.Events, federated.FaultEvent{Time: t, Client: ci, Kind: federated.FaultLeave})
			case next:
				f.Events = append(f.Events, federated.FaultEvent{Time: t, Client: ci, Kind: federated.FaultJoin})
			}
		}
		up = next
	}
	opt.Async.Faults = f
	return nil
}

func applyCrashRejoin(s *Scenario, subs []*graph.Graph, opt *federated.Options) error {
	n := len(subs)
	count, err := s.intParam("clients", 1, n-1)
	if err != nil {
		return err
	}
	at, err := s.fracParam("at", 0, 1)
	if err != nil {
		return err
	}
	down, err := s.fracParam("down", 0, 1)
	if err != nil {
		return err
	}
	h := horizon(subs, opt)
	var f federated.Faults
	for i := n - count; i < n; i++ {
		f.Events = append(f.Events,
			federated.FaultEvent{Time: at * h, Client: i, Kind: federated.FaultCrash},
			federated.FaultEvent{Time: (at + down) * h, Client: i, Kind: federated.FaultJoin},
		)
	}
	opt.Async.Faults = f
	return nil
}

// attackerCount resolves the byzantine scenarios' m against the fleet,
// keeping an honest majority impossible to silence (m < n).
func (s *Scenario) attackerCount(n int) (int, error) {
	return s.intParam("m", 1, n-1)
}

func applyLabelFlip(s *Scenario, subs []*graph.Graph, opt *federated.Options) error {
	n := len(subs)
	m, err := s.attackerCount(n)
	if err != nil {
		return err
	}
	frac, err := s.fracParam("frac", 0, 1)
	if err != nil {
		return err
	}
	for i := n - m; i < n; i++ {
		g := subs[i]
		if g.Labels == nil || g.Classes < 2 {
			return fmt.Errorf("scenario: byz-labelflip: client %d needs labeled data with >= 2 classes", i)
		}
	}
	// Deterministic poisoning: one seeded stream per attacker, labels of
	// train-masked nodes flipped to a different class with probability frac.
	for i := n - m; i < n; i++ {
		g := subs[i]
		rng := rand.New(rand.NewSource(opt.Seed*1_000_003 + int64(i)*8191 + 17))
		for v := 0; v < g.N; v++ {
			if !g.TrainMask[v] {
				continue
			}
			if frac < 1 && rng.Float64() >= frac {
				continue
			}
			g.Labels[v] = (g.Labels[v] + 1 + rng.Intn(g.Classes-1)) % g.Classes
		}
	}
	return nil
}

// applyUploadAttack installs a from-the-start corrupt event on the last m
// clients.
func applyUploadAttack(s *Scenario, subs []*graph.Graph, opt *federated.Options, atk federated.Attack) error {
	n := len(subs)
	m, err := s.attackerCount(n)
	if err != nil {
		return err
	}
	var f federated.Faults
	for i := n - m; i < n; i++ {
		f.Events = append(f.Events, federated.FaultEvent{Time: 0, Client: i, Kind: federated.FaultCorrupt, Attack: atk})
	}
	opt.Async.Faults = f
	return nil
}

func applySignFlip(s *Scenario, subs []*graph.Graph, opt *federated.Options) error {
	return applyUploadAttack(s, subs, opt, federated.Attack{Kind: federated.AttackSignFlip})
}

func applyScale(s *Scenario, subs []*graph.Graph, opt *federated.Options) error {
	factor, err := s.fracParam("factor", 0, 1e6)
	if err != nil {
		return err
	}
	return applyUploadAttack(s, subs, opt, federated.Attack{Kind: federated.AttackScale, Factor: factor})
}

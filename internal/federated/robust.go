package federated

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// AggregatorKind selects the server-side rule that combines one commit's
// buffered client updates into the next global model. The zero value is the
// paper's FedAvg weighted mean; the alternatives are the classical
// byzantine-robust statistics evaluated by the chaos scenarios.
type AggregatorKind int

const (
	// AggFedAvg is the data-size-weighted mean of Eq. (4) — the default, and
	// the rule the golden digests pin.
	AggFedAvg AggregatorKind = iota
	// AggMedian takes the unweighted coordinate-wise median of the updates.
	// Aggregation weights (data size, staleness discount) are ignored: the
	// median's breakdown point is what resists sign-flip and scaled-update
	// attackers, and weighting would hand attackers with large subgraphs
	// extra influence back.
	AggMedian
	// AggTrimmedMean sorts each coordinate, drops the
	// floor(TrimFrac × n) most extreme updates from each end, and takes the
	// weighted mean of the survivors. TrimFrac = 0 keeps every update, which
	// makes it FedAvg exactly.
	AggTrimmedMean
)

// String names the aggregator the way flags and bench tables spell it.
func (k AggregatorKind) String() string {
	switch k {
	case AggMedian:
		return "median"
	case AggTrimmedMean:
		return "trim"
	default:
		return "fedavg"
	}
}

// ParseAggregator maps a flag spelling ("fedavg", "median", "trim") to its
// AggregatorKind.
func ParseAggregator(s string) (AggregatorKind, error) {
	switch s {
	case "", "fedavg":
		return AggFedAvg, nil
	case "median":
		return AggMedian, nil
	case "trim", "trimmed", "trimmed-mean":
		return AggTrimmedMean, nil
	}
	return AggFedAvg, fmt.Errorf("federated: robust: unknown aggregator %q (want fedavg, median or trim)", s)
}

// RobustOptions configures the robust-aggregation defences. The zero value
// is plain FedAvg with no clipping and no noise. Defences compose in a fixed order per commit: each received
// update is norm-clipped against the broadcast it was trained from, the
// selected aggregator combines the clipped updates, and seeded Gaussian
// noise is added to the committed aggregate last.
type RobustOptions struct {
	// Aggregator selects the combination rule (FedAvg mean, coordinate
	// median, or trimmed mean).
	Aggregator AggregatorKind
	// TrimFrac is the per-side trim fraction for AggTrimmedMean in
	// [0, 0.5): floor(TrimFrac × n) updates are dropped from each end of
	// every coordinate's sorted value list. 0 trims nothing. Ignored by the
	// other aggregators.
	TrimFrac float64
	// ClipNorm, when > 0, rescales every committed update so the L2 norm of
	// its delta against the broadcast parameters it was trained from is at
	// most ClipNorm — the standard defence against scaled-update attackers
	// (and the sensitivity bound DP noise calibrates against).
	ClipNorm float64
	// NoiseStd, when > 0, adds zero-mean Gaussian noise with this standard
	// deviation to every coordinate of every committed aggregate, drawn from
	// one seeded stream so runs stay bit-reproducible for any worker count.
	NoiseStd float64
	// NoiseSeed seeds the noise stream; 0 derives a seed from Options.Seed.
	NoiseSeed int64
}

// validate rejects non-finite or out-of-range robustness knobs with named
// errors before a run starts.
func (ro RobustOptions) validate() error {
	switch ro.Aggregator {
	case AggFedAvg, AggMedian, AggTrimmedMean:
	default:
		return fmt.Errorf("federated: robust: unknown aggregator kind %d", ro.Aggregator)
	}
	if !(ro.TrimFrac >= 0 && ro.TrimFrac < 0.5) {
		return fmt.Errorf("federated: robust: TrimFrac %v outside [0, 0.5)", ro.TrimFrac)
	}
	if !(ro.ClipNorm >= 0) || math.IsInf(ro.ClipNorm, 0) {
		return fmt.Errorf("federated: robust: ClipNorm %v must be finite and >= 0", ro.ClipNorm)
	}
	if !(ro.NoiseStd >= 0) || math.IsInf(ro.NoiseStd, 0) {
		return fmt.Errorf("federated: robust: NoiseStd %v must be finite and >= 0", ro.NoiseStd)
	}
	return nil
}

// aggregate combines weighted updates into the next global model with the
// selected rule. updates and weights are parallel and non-empty; for the
// FedAvg kind the accumulation order is updates in caller order with one
// running totalW — the order the golden digests pin.
func (ro RobustOptions) aggregate(dim int, updates [][]float64, weights []float64) []float64 {
	switch ro.Aggregator {
	case AggMedian:
		return coordinateMedian(dim, updates)
	case AggTrimmedMean:
		return trimmedMean(dim, updates, weights, ro.TrimFrac)
	default:
		return weightedMean(dim, updates, weights)
	}
}

// weightedMean is Eq. (4)'s data-size-weighted mean, accumulated in caller
// order (the float summation order the golden digests pin).
func weightedMean(dim int, updates [][]float64, weights []float64) []float64 {
	agg := make([]float64, dim)
	var totalW float64
	for u, params := range updates {
		w := weights[u]
		for i, v := range params {
			agg[i] += w * v
		}
		totalW += w
	}
	for i := range agg {
		agg[i] /= totalW
	}
	return agg
}

// coordinateMedian returns the unweighted per-coordinate median (mean of the
// two middle values for even counts).
func coordinateMedian(dim int, updates [][]float64) []float64 {
	agg := make([]float64, dim)
	vals := make([]float64, len(updates))
	for i := 0; i < dim; i++ {
		for u, params := range updates {
			vals[u] = params[i]
		}
		sort.Float64s(vals)
		m := len(vals) / 2
		if len(vals)%2 == 1 {
			agg[i] = vals[m]
		} else {
			agg[i] = (vals[m-1] + vals[m]) / 2
		}
	}
	return agg
}

// trimmedMean sorts each coordinate, drops floor(frac × n) updates from each
// end (capped so at least one survives), and takes the weighted mean of the
// survivors in sorted order.
func trimmedMean(dim int, updates [][]float64, weights []float64, frac float64) []float64 {
	n := len(updates)
	trim := int(frac * float64(n))
	if 2*trim >= n {
		trim = (n - 1) / 2
	}
	if trim == 0 {
		return weightedMean(dim, updates, weights)
	}
	agg := make([]float64, dim)
	type vw struct{ v, w float64 }
	vals := make([]vw, n)
	for i := 0; i < dim; i++ {
		for u, params := range updates {
			vals[u] = vw{params[i], weights[u]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		var sum, totalW float64
		for _, e := range vals[trim : n-trim] {
			sum += e.w * e.v
			totalW += e.w
		}
		agg[i] = sum / totalW
	}
	return agg
}

// clipDelta rescales params in place so the L2 norm of params − base is at
// most limit, and returns the delta norm actually committed (the pre-clip
// norm when it was already within the limit, otherwise limit).
func clipDelta(params, base []float64, limit float64) float64 {
	var ss float64
	for i := range params {
		d := params[i] - base[i]
		ss += d * d
	}
	norm := math.Sqrt(ss)
	if norm <= limit {
		return norm
	}
	scale := limit / norm
	for i := range params {
		params[i] = base[i] + scale*(params[i]-base[i])
	}
	return limit
}

// noiseStream is the seeded Gaussian DP-noise source, consumed once per
// commit in commit order so noisy runs stay bit-reproducible for any worker
// count.
type noiseStream struct {
	std float64
	rng *rand.Rand
}

// newNoiseStream returns the run's noise source, or nil when NoiseStd is 0.
func newNoiseStream(opt Options) *noiseStream {
	if opt.Robust.NoiseStd <= 0 {
		return nil
	}
	seed := opt.Robust.NoiseSeed
	if seed == 0 {
		seed = opt.Seed*7919 + 13
	}
	return &noiseStream{std: opt.Robust.NoiseStd, rng: rand.New(rand.NewSource(seed))}
}

// add perturbs every coordinate of a committed aggregate in place.
func (ns *noiseStream) add(params []float64) {
	for i := range params {
		params[i] += ns.std * ns.rng.NormFloat64()
	}
}

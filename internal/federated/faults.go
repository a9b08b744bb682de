package federated

import (
	"fmt"
	"math"
	"sort"
)

// FaultKind classifies one scheduled fault event on the engine's
// virtual timeline.
type FaultKind int

const (
	// FaultCrash takes the client down at Time and loses its in-flight
	// update (the trained parameters never reach the server). When the
	// client later rejoins it resumes from the stale broadcast it last
	// received, with the matching old model version, so the FedAsync
	// staleness discount applies to its first post-rejoin update naturally.
	FaultCrash FaultKind = iota
	// FaultLeave takes the client down gracefully at Time: an in-flight
	// update still arrives and aggregates, but the client is not
	// re-dispatched until a FaultJoin brings it back.
	FaultLeave
	// FaultJoin brings the client (back) up at Time. It is folded into the
	// schedule at the next commit boundary: the server re-dispatches joined
	// clients together with that commit's idle participants.
	FaultJoin
	// FaultCorrupt installs Attack on the client from Time on: every update
	// it uploads afterwards is corrupted before it leaves the client. An
	// AttackNone attack clears a previously installed one.
	FaultCorrupt
)

// String names the fault kind for logs and error messages.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultLeave:
		return "leave"
	case FaultJoin:
		return "join"
	case FaultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// AttackKind classifies how a byzantine client corrupts its uploads.
type AttackKind int

const (
	// AttackNone uploads honestly (and, on a FaultCorrupt event, clears a
	// previously installed attack).
	AttackNone AttackKind = iota
	// AttackSignFlip uploads base − (local − base): the honest update's
	// delta with its sign flipped, the classical gradient-reversal attacker.
	AttackSignFlip
	// AttackScale uploads base + Factor·(local − base): the honest delta
	// blown up (or shrunk) by Factor, the attacker norm clipping exists to
	// bound.
	AttackScale
)

// String names the attack kind for logs and error messages.
func (k AttackKind) String() string {
	switch k {
	case AttackNone:
		return "none"
	case AttackSignFlip:
		return "signflip"
	case AttackScale:
		return "scale"
	}
	return fmt.Sprintf("AttackKind(%d)", int(k))
}

// Attack describes a byzantine upload corruption installed by a FaultCorrupt
// event. The corruption is a pure function of the broadcast base and the
// honestly trained local parameters, so attacked runs stay bit-reproducible.
type Attack struct {
	// Kind selects the corruption rule.
	Kind AttackKind
	// Factor is AttackScale's delta multiplier; other kinds ignore it.
	Factor float64
}

// apply returns the corrupted upload for the given broadcast base and
// honestly trained local parameters. AttackNone returns local unchanged.
func (a Attack) apply(base, local []float64) []float64 {
	switch a.Kind {
	case AttackSignFlip:
		out := make([]float64, len(local))
		for i := range local {
			out[i] = base[i] - (local[i] - base[i])
		}
		return out
	case AttackScale:
		out := make([]float64, len(local))
		for i := range local {
			out[i] = base[i] + a.Factor*(local[i]-base[i])
		}
		return out
	}
	return local
}

// FaultEvent schedules one fault at a virtual-clock time. Events at time T
// take effect before update arrivals stamped at T, and events sharing a time
// apply in slice order.
type FaultEvent struct {
	// Time is the virtual-clock instant the event fires at (same abstract
	// units as SpeedModel durations and Result.RoundTime). Must be finite
	// and >= 0; events at 0 apply before the initial dispatch wave.
	Time float64
	// Client is the index of the affected client.
	Client int
	// Kind selects what happens to the client.
	Kind FaultKind
	// Attack is the corruption installed by FaultCorrupt events; other
	// kinds ignore it.
	Attack Attack
}

// Faults is the fault-injection schedule of one run: a list of
// per-client events ordered by the engine's virtual clock, so every faulted
// run is bit-reproducible for any worker count. The zero value injects
// nothing.
type Faults struct {
	// Events is the schedule; Server.Run sorts a copy stably by Time,
	// so same-time events keep their slice order.
	Events []FaultEvent
	// DownAtStart lists clients that begin the run down (joining later via
	// a FaultJoin event): they are skipped by the initial dispatch wave.
	DownAtStart []int
}

// Empty reports whether the schedule injects nothing.
func (f Faults) Empty() bool { return len(f.Events) == 0 && len(f.DownAtStart) == 0 }

// validate rejects malformed schedules (client out of range, non-finite or
// negative times, unknown kinds, non-finite attack factors) with named
// errors before a run starts.
func (f Faults) validate(n int) error {
	for _, ci := range f.DownAtStart {
		if ci < 0 || ci >= n {
			return fmt.Errorf("federated: faults: DownAtStart client %d out of range [0, %d)", ci, n)
		}
	}
	for i, ev := range f.Events {
		if !(ev.Time >= 0) || math.IsInf(ev.Time, 0) {
			return fmt.Errorf("federated: faults: event %d time %v must be finite and >= 0", i, ev.Time)
		}
		if ev.Client < 0 || ev.Client >= n {
			return fmt.Errorf("federated: faults: event %d client %d out of range [0, %d)", i, ev.Client, n)
		}
		switch ev.Kind {
		case FaultCrash, FaultLeave, FaultJoin:
		case FaultCorrupt:
			switch ev.Attack.Kind {
			case AttackNone, AttackSignFlip:
			case AttackScale:
				if math.IsNaN(ev.Attack.Factor) || math.IsInf(ev.Attack.Factor, 0) {
					return fmt.Errorf("federated: faults: event %d scale factor %v must be finite", i, ev.Attack.Factor)
				}
			default:
				return fmt.Errorf("federated: faults: event %d unknown attack kind %d", i, int(ev.Attack.Kind))
			}
		default:
			return fmt.Errorf("federated: faults: event %d unknown fault kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// faultRun is the mutable per-run state of a fault schedule: the sorted
// event cursor plus each client's liveness, staleness and attack status.
// All mutation happens on the Run loop goroutine.
type faultRun struct {
	events []FaultEvent
	next   int
	down   []bool
	stale  []bool // next dispatch reuses the client's stale broadcast (post-crash rejoin)
	attack []Attack
}

// newFaultRun validates the schedule and builds the run state for n clients.
func newFaultRun(f Faults, n int) (*faultRun, error) {
	if err := f.validate(n); err != nil {
		return nil, err
	}
	events := append([]FaultEvent(nil), f.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	fr := &faultRun{
		events: events,
		down:   make([]bool, n),
		stale:  make([]bool, n),
		attack: make([]Attack, n),
	}
	for _, ci := range f.DownAtStart {
		fr.down[ci] = true
	}
	return fr, nil
}

// process applies every event scheduled at or before virtual time t. Crashes
// mark the client's in-flight job lost, so the harvest loop discards it.
func (fr *faultRun) process(t float64, inflight []*asyncJob) {
	for fr.next < len(fr.events) && fr.events[fr.next].Time <= t {
		ev := fr.events[fr.next]
		fr.next++
		switch ev.Kind {
		case FaultCrash:
			fr.down[ev.Client] = true
			fr.stale[ev.Client] = true
			for _, job := range inflight {
				if job.client == ev.Client {
					job.lost = true
				}
			}
		case FaultLeave:
			fr.down[ev.Client] = true
		case FaultJoin:
			fr.down[ev.Client] = false
		case FaultCorrupt:
			fr.attack[ev.Client] = ev.Attack
		}
	}
}

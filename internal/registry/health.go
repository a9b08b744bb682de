package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// HealthState is the per-model circuit-breaker state the registry tracks for
// every registered artifact.
type HealthState int

const (
	// HealthOK means the model is serving normally (or has never been
	// exercised).
	HealthOK HealthState = iota
	// HealthDegraded means recent load or predict failures were observed but
	// the consecutive-failure threshold has not been reached; requests still
	// flow.
	HealthDegraded
	// HealthTripped means the breaker is open: acquires answer a fast
	// TrippedError (HTTP 503 + Retry-After) without touching the artifact
	// until the backoff window lapses, after which the next acquire is let
	// through as a lazy half-open probe.
	HealthTripped
)

// String renders the state for listings and logs.
func (h HealthState) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthTripped:
		return "tripped"
	}
	return fmt.Sprintf("HealthState(%d)", int(h))
}

// Default circuit-breaker parameters, used when the corresponding
// BreakerOptions field is zero.
const (
	// DefaultBreakerThreshold is the consecutive-failure count that trips a
	// model's breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerBackoff is the base trip window; it doubles on every
	// consecutive trip.
	DefaultBreakerBackoff = 500 * time.Millisecond
	// DefaultBreakerMaxBackoff caps the exponential trip window.
	DefaultBreakerMaxBackoff = 30 * time.Second
)

// BreakerOptions configures the registry's per-model circuit breaker.
// Consecutive load failures (unreadable or corrupt artifact) and engine
// panics (serve.ErrModelPanic) count toward Threshold; any success resets
// the run. A tripped model fails acquires fast with
// TrippedError until its backoff window — Backoff doubled per consecutive
// trip, capped at MaxBackoff, stretched by up to 20% seeded jitter — lapses;
// the next acquire after that is the half-open probe whose outcome either
// closes the breaker or re-trips it with a doubled window.
type BreakerOptions struct {
	// Threshold is the consecutive-failure count that trips the breaker.
	// 0 selects DefaultBreakerThreshold; negative disables the breaker.
	Threshold int
	// Backoff is the base trip window. 0 selects DefaultBreakerBackoff.
	Backoff time.Duration
	// MaxBackoff caps the exponentially growing trip window. 0 selects
	// DefaultBreakerMaxBackoff.
	MaxBackoff time.Duration
	// Seed drives the jitter stream, so a seeded torture scenario trips and
	// recovers on the same schedule every run.
	Seed int64
}

// withDefaults resolves zero fields to the package defaults.
func (b BreakerOptions) withDefaults() BreakerOptions {
	if b.Threshold == 0 {
		b.Threshold = DefaultBreakerThreshold
	}
	if b.Backoff <= 0 {
		b.Backoff = DefaultBreakerBackoff
	}
	if b.MaxBackoff <= 0 {
		b.MaxBackoff = DefaultBreakerMaxBackoff
	}
	return b
}

// ErrTripped marks acquires rejected by an open per-model circuit breaker;
// the HTTP layer maps it to 503 with a Retry-After header. Test with
// errors.Is; errors.As a *TrippedError for the retry hint.
var ErrTripped = errors.New("registry: model circuit tripped")

// TrippedError is the typed failure of an acquire on a tripped model. It
// matches errors.Is(err, ErrTripped) and implements serve.RetryAfterer, so
// serve.WriteError stamps the remaining trip window as the Retry-After
// header.
type TrippedError struct {
	// Ref is the tripped model's name@version key.
	Ref string
	// Until is when the trip window lapses and the next acquire probes.
	Until time.Time
	// Cause is the failure that tripped the breaker.
	Cause error
}

// Error renders the named-op failure.
func (e *TrippedError) Error() string {
	return fmt.Sprintf("registry: %s: circuit tripped until %s (cause: %v)",
		e.Ref, e.Until.Format(time.RFC3339), e.Cause)
}

// Is matches the ErrTripped sentinel.
func (e *TrippedError) Is(target error) bool { return target == ErrTripped }

// Unwrap exposes the tripping cause to errors.Is/As chains.
func (e *TrippedError) Unwrap() error { return e.Cause }

// RetryAfter reports the remaining trip window (at least 1s), satisfying
// serve.RetryAfterer.
func (e *TrippedError) RetryAfter() time.Duration {
	d := time.Until(e.Until)
	if d < time.Second {
		d = time.Second
	}
	return d
}

// tripCheckLocked gates an acquire on e's breaker state: inside an open trip
// window it returns the fast TrippedError; once the window lapsed it lets
// the caller through as the lazy half-open probe (leaving the state tripped
// until the probe's outcome is recorded). r.mu must be held.
func (r *Registry) tripCheckLocked(e *entry) error {
	if e.health != HealthTripped {
		return nil
	}
	if time.Now().Before(e.retryAt) {
		return &TrippedError{Ref: e.ref(), Until: e.retryAt, Cause: e.lastErr}
	}
	return nil
}

// recordFailureLocked accounts one breaker-relevant failure (load error or
// engine panic) on e, tripping it once the consecutive run reaches the
// threshold. The trip window grows exponentially with consecutive trips and
// carries seeded jitter, so a half-open probe that fails re-trips with a
// doubled window. r.mu must be held.
func (r *Registry) recordFailureLocked(e *entry, cause error) {
	if r.breaker.Threshold < 0 {
		return
	}
	e.failures++
	e.lastErr = cause
	if e.failures < r.breaker.Threshold {
		recordHealthTransition(e.ref(), e.health, HealthDegraded)
		e.health = HealthDegraded
		return
	}
	d := r.breaker.Backoff << e.trips
	if d <= 0 || d > r.breaker.MaxBackoff {
		d = r.breaker.MaxBackoff
	}
	// Stretch by up to 20% from the seeded stream: herds of clients retrying
	// a recovering model spread out instead of re-tripping it in lockstep.
	d += time.Duration(float64(d) * 0.2 * r.rng.Float64())
	recordHealthTransition(e.ref(), e.health, HealthTripped)
	telBreakerTrips.With(e.ref()).Inc()
	e.health = HealthTripped
	e.retryAt = time.Now().Add(d)
	e.trips++
	// The consecutive-failure run is NOT reset: the half-open probe's single
	// failure pushes the count past the threshold again immediately.
	e.failures = r.breaker.Threshold
}

// recordSuccessLocked closes e's breaker after a successful load or predict:
// the failure run, trip count and backoff all reset. r.mu must be held.
func (r *Registry) recordSuccessLocked(e *entry) {
	if e.health == HealthOK && e.failures == 0 {
		return
	}
	recordHealthTransition(e.ref(), e.health, HealthOK)
	e.health = HealthOK
	e.failures, e.trips = 0, 0
	e.retryAt = time.Time{}
	e.lastErr = nil
}

// breakerRNG builds the registry's seeded jitter stream.
func breakerRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Readiness is the fleet readiness summary behind GET /v1/readyz and the
// readiness fields of GET /v1/healthz: liveness means the process answers,
// readiness means it can actually serve a prediction.
type Readiness struct {
	// Ready reports whether the fleet can serve: the registry is open and at
	// least one registered version is not tripped.
	Ready bool `json:"ready"`
	// Models and Versions count registered names and artifacts.
	Models   int `json:"models"`
	Versions int `json:"versions"`
	// Tripped counts versions whose circuit breaker is currently open.
	Tripped int `json:"tripped"`
	// Quarantined counts artifacts a lenient scan refused to register.
	Quarantined int `json:"quarantined"`
}

// Readiness computes the current fleet readiness summary.
func (r *Registry) Readiness() Readiness {
	r.mu.Lock()
	defer r.mu.Unlock()
	var versions, tripped int
	for _, m := range r.models {
		for _, e := range m.versions {
			versions++
			if e.health == HealthTripped {
				tripped++
			}
		}
	}
	return Readiness{
		Ready:       !r.closed && versions > 0 && tripped < versions,
		Models:      len(r.models),
		Versions:    versions,
		Tripped:     tripped,
		Quarantined: len(r.quarantined),
	}
}

package serve

import "time"

// ChaosOptions is the batcher's deterministic fault-injection surface — the
// serving-side analogue of the federation layer's fault schedules. It exists
// so the torture harness (internal/registry's TestTorture, which make
// torture-demo runs) and the resilience tests can drive the real recovery
// machinery (panic isolation, deadline expiry, circuit breaking) through the
// production code path instead of mocks: faults fire on a deterministic window counter owned by the single
// dispatcher goroutine, so a seeded scenario injects the same faults at the
// same windows on every run. The zero value injects nothing and costs
// nothing.
type ChaosOptions struct {
	// PanicEvery panics the batch engine on every PanicEvery-th batch
	// window (the PanicEvery-th, 2·PanicEvery-th, ...). The panic unwinds
	// through the dispatcher's recovery: the window's requests fail with
	// ErrModelPanic, the server keeps running. 0 disables.
	PanicEvery int
	// DelayEvery stalls every DelayEvery-th batch window by Delay before
	// the engine runs — a deterministic slow-model simulation that lets
	// deadline and overload behaviour be provoked on fast hardware. 0
	// disables.
	DelayEvery int
	// Delay is the stall injected by DelayEvery windows.
	Delay time.Duration
}

// active reports whether any fault is configured.
func (c ChaosOptions) active() bool {
	return c.PanicEvery > 0 || (c.DelayEvery > 0 && c.Delay > 0)
}

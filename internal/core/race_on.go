//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the Step-2
// allocation guard skips under it (sync.Pool drops items at random there, so
// the pack buffers are re-allocated by design).
const raceEnabled = true

package matrix

import (
	"math/rand"
	"testing"
)

func TestSetTilingClampsAndRestores(t *testing.T) {
	orig := CurrentTiling()
	defer SetTiling(orig)

	prev := SetTiling(Tiling{MC: 5, KC: 10, NC: 6})
	if prev != orig {
		t.Fatalf("SetTiling returned prev %+v, want %+v", prev, orig)
	}
	got := CurrentTiling()
	// MC and NC round up to micro-kernel multiples; KC is free.
	if got.MC != 8 || got.KC != 10 || got.NC != 8 {
		t.Fatalf("clamped tiling = %+v, want {8 10 8}", got)
	}
	// Zero fields keep that tile's default.
	SetTiling(Tiling{})
	if CurrentTiling() != DefaultTiling() {
		t.Fatalf("SetTiling(zero) = %+v, want defaults", CurrentTiling())
	}
}

// TestBlockedDegenerateShapes covers empty operands and single-row/column
// extremes straight through the blocked engine.
func TestBlockedDegenerateShapes(t *testing.T) {
	defer SetTiling(SetTiling(DefaultTiling()))
	SetTiling(Tiling{MC: 4, KC: 2, NC: 4})
	cases := [][3]int{{0, 5, 3}, {5, 0, 3}, {5, 3, 0}, {1, 1, 1}, {1, 9, 1}, {3, 1, 5}}
	rng := rand.New(rand.NewSource(3))
	for _, s := range cases {
		a, b := New(s[0], s[1]), New(s[1], s[2])
		randContents(a, rng)
		randContents(b, rng)
		blocked := New(s[0], s[2])
		blockedMulInto(blocked, a, b)
		naive := New(s[0], s[2])
		naiveMulInto(naive, a, b)
		if !Equal(blocked, naive, 1e-12) {
			t.Fatalf("shape %v: blocked diverges from naive", s)
		}
	}
}

// TestBlockedOverwritesDst verifies the engine resets dst rather than
// accumulating into stale contents, matching MulInto's contract.
func TestBlockedOverwritesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := New(70, 70), New(70, 70)
	randContents(a, rng)
	randContents(b, rng)
	dst := New(70, 70)
	dst.Fill(99)
	blockedMulInto(dst, a, b)
	want := New(70, 70)
	naiveMulInto(want, a, b)
	if !Equal(dst, want, 1e-12) {
		t.Fatal("blockedMulInto accumulated into stale dst contents")
	}
}

func TestMulNaiveMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Above the cutover Mul takes the blocked engine; MulNaive must still
	// pin the naive path and the two must agree.
	a, b := New(128, 128), New(128, 128)
	randContents(a, rng)
	randContents(b, rng)
	if !Equal(Mul(a, b), MulNaive(a, b), 1e-12) {
		t.Fatal("Mul and MulNaive diverge above the cutover")
	}
}

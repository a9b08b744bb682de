package sparse

import "testing"

func TestFromCoordsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range coord")
		}
	}()
	FromCoords(2, 2, []Coord{{Row: 2, Col: 0, Val: 1}})
}

func TestWithSelfLoopsNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-square matrix")
		}
	}()
	FromCoords(2, 3, nil).WithSelfLoops()
}

func TestEmptyMatrix(t *testing.T) {
	m := FromCoords(3, 3, nil)
	if m.NNZ() != 0 {
		t.Fatal("empty matrix has entries")
	}
	d := m.Degrees()
	for _, v := range d {
		if v != 0 {
			t.Fatal("empty matrix degree nonzero")
		}
	}
	out := m.MulVec([]float64{1, 2, 3})
	for _, v := range out {
		if v != 0 {
			t.Fatal("empty SpMV nonzero")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromEdges(3, [][2]int{{0, 1}})
	c := m.Clone()
	c.Val[0] = 42
	if m.Val[0] == 42 {
		t.Fatal("Clone must copy values")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	m := FromEdges(4, [][2]int{{0, 1}, {2, 3}, {1, 2}})
	d := m.Dense()
	back := FromCoords(4, 4, denseCoords(d.Rows, d.Cols, d.Data))
	if back.NNZ() != m.NNZ() {
		t.Fatalf("round trip NNZ %d != %d", back.NNZ(), m.NNZ())
	}
}

func denseCoords(rows, cols int, data []float64) []Coord {
	var out []Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := data[i*cols+j]; v != 0 {
				out = append(out, Coord{Row: i, Col: j, Val: v})
			}
		}
	}
	return out
}

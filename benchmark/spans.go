package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's own files. Start and End are nanoseconds since the recorder
// was created. Parent is the index of the span this one is a part of, -1
// for none; a part may have been replayed standalone, so it need not lie
// inside its parent's interval. ID is the iteration or request the span
// belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int    `json:"id"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the end-to-end pass runs with tracing off. It is
// used from one goroutine only: every traced pass is serial.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, -1 on a nil recorder.
func (r *recorder) begin(name string, parent, id int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, ID: id, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r != nil {
		r.spans[i].End = int64(time.Since(r.t0))
	}
}

// timed runs fn inside a span and returns how long fn took, so callers get
// the duration whether or not tracing is on.
func (r *recorder) timed(name string, parent, id int, fn func()) time.Duration {
	i := r.begin(name, parent, id)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(i)
	return d
}

// durations lists the seconds each span of the given name took.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// total is the summed seconds of every span of the given name.
func (r *recorder) total(name string) float64 {
	var sum float64
	for _, d := range r.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes returns, per span, its duration minus the time its children
// cover, in nanoseconds. Children that overlap one another are counted once
// (the union of their intervals), so concurrent parts are not subtracted
// twice. A negative value means the replayed parts took longer than the
// whole, which is reported rather than hidden.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - unionLength(children[i])
	}
	return out
}

// unionLength is the total length covered by the intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, end int64
	for k, x := range iv {
		if k == 0 || x[0] > end {
			sum += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			sum += x[1] - end
			end = x[1]
		}
	}
	return sum
}

// selfByName lists the self times, in seconds, of the spans of one name.
func (r *recorder) selfByName(name string) []float64 {
	var out []float64
	if r == nil {
		return out
	}
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e9)
		}
	}
	return out
}

// writeJSONL writes a header record followed by one span per line.
func (r *recorder) writeJSONL(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(r.spans); i++ {
		err = enc.Encode(r.spans[i])
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// overheadShare is the share of the traced time spent recording spans. A
// span costs two clock reads and an append; the share is the span count
// times that calibrated cost over the time spent inside spans (they never
// nest in time: every traced pass is serial and parts are replayed after the
// whole). It is computed, not measured as the difference of a traced and an
// untraced run: that difference is a few parts in a million and run-to-run
// noise is a few parts in a hundred.
func (r *recorder) overheadShare() float64 {
	const n = 20000
	probe := newRecorder()
	start := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin("calibrate", -1, i))
	}
	perSpan := time.Since(start).Seconds() / n
	var inside float64
	for _, s := range r.spans {
		inside += float64(s.End-s.Start) / 1e9
	}
	if inside == 0 {
		return 0
	}
	return float64(len(r.spans)) * perSpan / inside
}

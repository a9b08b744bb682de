package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// The container layout is fixed and fully little-endian:
//
//	magic   [8]byte  "ADFGLCK1"
//	version uint32   (currently 2)
//	count   uint32   number of sections
//	count × section:
//	    kind    uint32   (strictly increasing across sections)
//	    length  uint64   payload byte count
//	    payload [length]byte
//	    crc     uint32   IEEE CRC-32 of payload
//
// Every integer is fixed-width, every float64 is its IEEE-754 bit pattern,
// and sections are written in a fixed kind order, so encoding is a pure
// function of the Checkpoint value and Save→Load→Save round-trips are
// bit-identical.

// Magic is the 8-byte file signature opening every checkpoint.
const Magic = "ADFGLCK1"

// Version is the current container format version. Version 2 added the
// logits-table section; a version-1 artifact carries no answer and is
// refused.
const Version = 2

// Section kinds, written in strictly increasing order.
const (
	secModel = 1 // arch, hyperparams, NormKind, flattened parameters
	secGraph = 2 // topology, features, labels, masks
	secAdj   = 3 // optional cached normalised adjacency (CSR)
	secTable = 4 // the N×C logits table the model answers with
)

// writer accumulates the little-endian encoding of one checkpoint.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) f64s(v []float64) {
	w.u64(uint64(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}

func (w *writer) ints(v []int) {
	w.u64(uint64(len(v)))
	for _, x := range v {
		w.u64(uint64(int64(x)))
	}
}

func (w *writer) bools(v []bool) {
	w.u64(uint64(len(v)))
	for _, b := range v {
		if b {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
}

// section frames the payload built by fill as one CRC-guarded section.
func (w *writer) section(kind uint32, fill func(p *writer)) {
	var p writer
	fill(&p)
	w.u32(kind)
	w.u64(uint64(len(p.buf)))
	w.buf = append(w.buf, p.buf...)
	w.u32(crc32.ChecksumIEEE(p.buf))
}

// reader decodes the little-endian encoding with sticky named-op errors:
// the first failure (truncation, bound violation, CRC mismatch) latches and
// every subsequent read returns zero values, so decode paths stay linear.
type reader struct {
	data []byte
	off  int
	err  error
}

// fail latches the first error, prefixed with the package op name.
func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("checkpoint: Decode: "+format, args...)
	}
}

// need reports whether n more bytes are available, failing otherwise.
func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || len(r.data)-r.off < n {
		r.fail("truncated input: need %d bytes at offset %d of %d", n, r.off, len(r.data))
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a u64 element count for elements of elemSize bytes, failing
// before any allocation if the remaining payload cannot possibly hold it
// (the allocation guard that keeps fuzzed length fields from ballooning).
func (r *reader) count(elemSize int, what string) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)-r.off)/uint64(elemSize) {
		r.fail("%s count %d exceeds remaining payload", what, n)
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil || !r.need(int(n)) {
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// take returns the next n bytes and advances past them, or nil once the
// reader has failed. The bulk decoders check their whole extent through it
// once and then convert from the sub-slice, instead of paying need() per
// element.
func (r *reader) take(n int) []byte {
	if !r.need(n) {
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) f64s(what string) []float64 {
	n := r.count(8, what)
	b := r.take(8 * n) // cannot overflow: count bounded n by the remaining bytes / 8
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func (r *reader) ints(what string) []int {
	n := r.count(8, what)
	b := r.take(8 * n)
	if r.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}

func (r *reader) bools(what string) []bool {
	n := r.count(1, what)
	b := r.take(n)
	if r.err != nil {
		return nil
	}
	out := make([]bool, n)
	for i, v := range b {
		switch v {
		case 0:
		case 1:
			out[i] = true
		default:
			r.fail("%s mask byte at %d is not 0/1", what, i)
			return nil
		}
	}
	return out
}

// dim reads a u64 that must fit a non-negative int dimension.
func (r *reader) dim(what string) int {
	v := r.u64()
	if r.err != nil {
		return 0
	}
	if v > math.MaxInt32 {
		r.fail("%s %d out of range", what, v)
		return 0
	}
	return int(v)
}

// sectionReader validates one section frame (kind, length, CRC) and returns
// a reader over its payload.
func (r *reader) sectionReader() (kind uint32, payload *reader) {
	kind = r.u32()
	n := r.u64()
	if r.err != nil {
		return 0, &reader{}
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("section %d length %d exceeds input", kind, n)
		return 0, &reader{}
	}
	body := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	want := r.u32()
	if r.err != nil {
		return 0, &reader{}
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		r.fail("section %d CRC mismatch: computed %08x, stored %08x", kind, got, want)
		return 0, &reader{}
	}
	return kind, &reader{data: body}
}

package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
)

// scrape is one reading of the Prometheus text exposition: series name with
// its label set, exactly as exposed, to value.
type scrape map[string]float64

// parseProm reads the text exposition format GET /v1/metrics answers with.
// Comment lines and lines that do not end in a number are skipped.
func parseProm(data []byte) scrape {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

// family sums every series of one metric family, whatever its labels; a
// non-empty label filter such as `arm="control"` keeps only series
// carrying it. Histogram parts (_bucket, _sum, _count) are other families.
func (s scrape) family(name, label string) float64 {
	var sum float64
	for series, v := range s {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		if label == "" || strings.Contains(rest, label) {
			sum += v
		}
	}
	return sum
}

// delta is how much a family grew between two scrapes.
func delta(before, after scrape, name, label string) float64 {
	return after.family(name, label) - before.family(name, label)
}

package main

// stats.go holds the arithmetic the result is built from: exact
// quantiles over sorted samples, medians, and counter sums over a
// Prometheus text scrape.

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// sorted returns the samples in ascending order, in place.
func sorted(samples []float64) []float64 {
	sort.Float64s(samples)
	return samples
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of ascending samples by
// linear interpolation between the two nearest ranks; 0 for no samples.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(pos)
	if lo >= len(asc)-1 {
		return asc[len(asc)-1]
	}
	frac := pos - float64(lo)
	return asc[lo] + frac*(asc[lo+1]-asc[lo])
}

func median(samples []float64) float64 { return quantile(sorted(samples), 0.5) }

// quartileSpread is the distance between the first and third quartile
// as a share of the median, the quartiles taken exactly as Python's
// statistics.quantiles(values, n=4) takes them (the driver's rule). It
// needs two samples; with fewer the spread is unknown and reported as 0.
func quartileSpread(samples []float64) float64 {
	asc := sorted(append([]float64(nil), samples...))
	med := quantile(asc, 0.5)
	if len(asc) < 2 || med == 0 {
		return 0
	}
	quartile := func(i int) float64 {
		m := len(asc) + 1
		j := min(max(i*m/4, 1), len(asc)-1)
		delta := i*m - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	spread := (quartile(3) - quartile(1)) / med
	if spread < 0 {
		return -spread
	}
	return spread
}

// scrape is the counters of one GET /metrics, keyed by the full series
// (name plus label set as exposed).
type scrape map[string]float64

func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
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
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named family whose label set contains
// all of the given substrings (e.g. `outcome="shed"`).
func (s scrape) sum(family string, labels ...string) float64 {
	total := 0.0
series:
	for key, v := range s {
		name, rest, _ := strings.Cut(key, "{")
		if name != family {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

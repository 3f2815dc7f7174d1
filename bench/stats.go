package main

import (
	"sort"
	"sync"
	"time"
)

// samples is one latency population. add is safe for concurrent use.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

// sorted returns an ordered copy of the population.
func (s *samples) sorted() []time.Duration {
	s.mu.Lock()
	out := append([]time.Duration(nil), s.d...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// p50 is the lower median of an ordered population (0 when empty).
func p50(sorted []time.Duration) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)-1)/2]
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

// tailRule is the report's tail percentile: the highest one that still has
// at least tailBeyond samples above it, so the value is never decided by a
// handful of outliers. It returns the value and the percentile it stands for
// (0, 0 when the population is too small to have such a tail).
const tailBeyond = 10

func tailRule(sorted []time.Duration) (time.Duration, float64) {
	n := len(sorted)
	if n <= tailBeyond {
		return 0, 0
	}
	i := n - tailBeyond - 1
	return sorted[i], 100 * float64(i+1) / float64(n)
}

// medianF and quartiles work on plain numbers (run-level metric values).
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the interquartile distance as a share of the median, with the
// quartile positions Python's statistics.quantiles(v, n=4) uses (exclusive
// method), so it agrees with the figure the acceptance check computes.
func spread(v []float64) float64 {
	n := len(v)
	m := medianF(v)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	d := (q(3) - q(1)) / m
	if d < 0 {
		d = -d
	}
	return d
}

// medianDur is the lower median of an unordered population.
func medianDur(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return p50(s)
}

// ratio is a/b, and 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

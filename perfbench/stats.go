package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// Metric names and units follow the grammar BENCHMARK.json is checked
// against: a name starts with a letter or digit and is at most 64 letters,
// digits, '_', '.' and '-'; a unit is at most 16 letters, digits, '_', '/',
// '%', '.' and '-'.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }
func validUnit(s string) bool { return unitRE.MatchString(s) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's values by name.
type metrics map[string]metric

// set records a value, refusing names or units outside the grammar and
// non-finite values: a malformed result line is a benchmark bug.
func (m metrics) set(name, unit string, v float64) {
	if !validName(name) || !validUnit(unit) {
		panic(fmt.Sprintf("perfbench: bad metric %q [%s]", name, unit))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %s is %v", name, v))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// percentile is the nearest-rank percentile q (0 < q <= 1) of samples.
func percentile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tail reports a timing's tail the way the benchmark states it: the
// requested percentile want, lowered to the highest percentile that still
// has at least ten samples beyond it. It returns the value, the percentile
// actually used and the sample count; ok is false when there are too few
// samples (ten or fewer) for any tail at all, in which case the median is
// returned.
func tail(samples []float64, want float64) (v, used float64, n int, ok bool) {
	n = len(samples)
	if n == 0 {
		return 0, 0, 0, false
	}
	used = want
	if limit := float64(n-10) / float64(n); limit < used {
		used = limit
	}
	if used < 0.5 {
		return percentile(samples, 0.5), 0.5, n, false
	}
	return percentile(samples, used), used, n, true
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tally counts operations for error_rate: every attempted operation that
// failed, was refused (HTTP 429) or produced output that did not match
// the independent recomputation counts as an error.
type tally struct {
	attempted  int
	failed     int
	refused    int
	mismatched int
}

// errors is the number of erroneous operations.
func (t tally) errors() int { return t.failed + t.refused + t.mismatched }

// errorRate is errors divided by attempted (0 when nothing was attempted).
func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.errors()) / float64(t.attempted)
}

// add merges another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	t.mismatched += o.mismatched
}

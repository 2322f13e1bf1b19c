package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile of sorted values: the
// smallest value with at least a q share of the values at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailQuantile is the highest of the quantiles 0.9, 0.99, 0.999, ...
// that leaves at least 10 of n samples beyond it; ok is false when
// even 0.9 leaves fewer.
func tailQuantile(n int) (q float64, ok bool) {
	for k := 1; ; k++ {
		beyond := float64(n) * math.Pow(10, -float64(k))
		if beyond < 10 {
			if k == 1 {
				return 0, false
			}
			return 1 - math.Pow(10, -float64(k-1)), true
		}
	}
}

// kind is what a latency tier is made of: a request class on one
// static goal (goal -1 for other requests). Requests of one class can
// differ in cost by much across goals: search streams 8- and 9-queens
// goals.
type kind struct {
	cls  class
	goal int16
}

func (k kind) String() string {
	if k.goal < 0 {
		return k.cls.String()
	}
	return fmt.Sprintf("%s:g%d", k.cls, k.goal)
}

func byClass(s sample) kind { return kind{cls: s.cls, goal: -1} }

func byKind(s sample) kind { return kind{cls: s.cls, goal: s.goal} }

// mix describes a set of samples grouped by key.
type mix struct {
	count  map[kind]int
	median map[kind]float64 // ms
	total  int
	tiers  [][]kind // kinds in ascending order of median, grouped
}

// tierRatio: neighbouring kinds (by median latency) whose medians
// differ by less than this factor are one latency tier. A percentile
// whose rank falls between two tiers jumps with the mix; one that
// falls between two kinds of one tier does not.
const tierRatio = 1.5

func mixOf(samples []sample, key func(sample) kind) mix {
	m := mix{count: map[kind]int{}, median: map[kind]float64{}, total: len(samples)}
	lat := map[kind][]float64{}
	for _, s := range samples {
		k := key(s)
		m.count[k]++
		lat[k] = append(lat[k], float64(s.dur())/1e6)
	}
	var present []kind
	for k, xs := range lat {
		m.median[k] = median(xs)
		present = append(present, k)
	}
	sort.Slice(present, func(i, j int) bool {
		a, b := present[i], present[j]
		if m.median[a] != m.median[b] {
			return m.median[a] < m.median[b]
		}
		return a.cls < b.cls || a.cls == b.cls && a.goal < b.goal
	})
	for i, k := range present {
		if i == 0 || m.median[k] > tierRatio*m.median[present[i-1]] {
			m.tiers = append(m.tiers, nil)
		}
		m.tiers[len(m.tiers)-1] = append(m.tiers[len(m.tiers)-1], k)
	}
	return m
}

func (m mix) share(k kind) float64 { return float64(m.count[k]) / float64(max(m.total, 1)) }

// margin is the distance, as a share of all samples, from rank q to
// the nearest boundary between two latency tiers (1 when there is a
// single tier), and the tier whose block holds rank q.
func (m mix) margin(q float64) (float64, int) {
	best, tier, cum := 1.0, len(m.tiers)-1, 0.0
	for i, t := range m.tiers[:max(len(m.tiers)-1, 0)] {
		for _, k := range t {
			cum += m.share(k)
		}
		best = min(best, math.Abs(q-cum))
		if q <= cum && tier == len(m.tiers)-1 {
			tier = i
		}
	}
	return best, tier
}

package main

import (
	"math"
	"sort"
)

// dist is a sample set reported as percentiles beside its size, so every
// percentile in the output can be read against the number of samples
// behind it.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

func (d *dist) n() int { return len(d.xs) }

// percentile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks, and 0 for an empty set.
func (d *dist) percentile(p float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	if p <= 0 {
		return d.xs[0]
	}
	if p >= 100 {
		return d.xs[len(d.xs)-1]
	}
	rank := p / 100 * float64(len(d.xs)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(d.xs) {
		return d.xs[lo]
	}
	return d.xs[lo] + frac*(d.xs[lo+1]-d.xs[lo])
}

func (d *dist) median() float64 { return d.percentile(50) }

// beyond returns how many samples lie strictly above the p-th percentile:
// the guide asks for at least ten beyond the highest percentile reported.
func (d *dist) beyond(p float64) int {
	v := d.percentile(p)
	n := 0
	for _, x := range d.xs {
		if x > v {
			n++
		}
	}
	return n
}

func medianOf(xs []float64) float64 {
	d := dist{xs: append([]float64(nil), xs...)}
	return d.median()
}

// Package provisioning implements the dynamic supernode provisioning
// strategy of §3.5 of the CloudFog paper.
//
// MMOG populations follow a regular weekly pattern with <10% week-to-week
// variation, so the number of online players for a coming time window is
// forecast with a seasonal ARIMA(0,1,1)(0,1,1)_T model (Eq. 14), the number
// of supernodes to pre-deploy derives from the forecast (Eq. 15), and the
// concrete supernodes are chosen by a rank-probability rule favoring
// previously-busy locations (Eq. 16).
package provisioning

import (
	"fmt"
	"math"
	"sort"

	"cloudfog/internal/rng"
)

// Forecaster predicts the number of online players per time window using a
// seasonal ARIMA(0,1,1)(0,1,1)_T model:
//
//	N̂_t = N_{t-1} + N_{t-T} − N_{t-T-1}
//	      − θ·W_{t-1} − Θ·W_{t-T} + θ·Θ·W_{t-T-1}
//
// where T is the seasonal period (time windows per week), θ the MA(1)
// coefficient, Θ the seasonal SMA(1) coefficient, and W_t the one-step
// forecast residuals (white noise).
type Forecaster struct {
	period    int
	theta     float64
	bigTheta  float64
	observed  []float64
	residuals []float64
	lastPred  float64
	havePred  bool
}

// NewForecaster creates a Forecaster with seasonal period T (windows per
// week) and MA coefficients theta and bigTheta. It returns an error when
// the period is not positive or a coefficient is outside [0, 1).
func NewForecaster(period int, theta, bigTheta float64) (*Forecaster, error) {
	if period <= 0 {
		return nil, fmt.Errorf("provisioning: period must be positive, got %d", period)
	}
	if theta < 0 || theta >= 1 || bigTheta < 0 || bigTheta >= 1 {
		return nil, fmt.Errorf("provisioning: MA coefficients must be in [0,1), got θ=%g Θ=%g", theta, bigTheta)
	}
	return &Forecaster{period: period, theta: theta, bigTheta: bigTheta}, nil
}

// Observe records the actual player count of the window that just closed
// and updates the residual series.
func (f *Forecaster) Observe(actual float64) {
	if actual < 0 {
		actual = 0
	}
	var w float64
	if f.havePred {
		w = actual - f.lastPred
	}
	f.observed = append(f.observed, actual)
	f.residuals = append(f.residuals, w)
	f.havePred = false
}

// at returns series[len-1-lag], or 0 when history is too short.
func at(series []float64, lag int) float64 {
	i := len(series) - 1 - lag
	if i < 0 {
		return 0
	}
	return series[i]
}

// Forecast predicts the number of players in the next window. With less
// than one full season of history it falls back to the last observation
// (naive forecast). The prediction is clamped at zero.
func (f *Forecaster) Forecast() float64 {
	n := len(f.observed)
	var pred float64
	switch {
	case n == 0:
		pred = 0
	case n <= f.period:
		pred = at(f.observed, 0)
	default:
		pred = at(f.observed, 0) + at(f.observed, f.period-1) - at(f.observed, f.period) -
			f.theta*at(f.residuals, 0) -
			f.bigTheta*at(f.residuals, f.period-1) +
			f.theta*f.bigTheta*at(f.residuals, f.period)
	}
	if pred < 0 {
		pred = 0
	}
	f.lastPred = pred
	f.havePred = true
	return pred
}

// SupernodeCount returns Ns_t = ceil((1+epsilon) * predicted / avgCapacity)
// (Eq. 15): the number of supernodes to pre-deploy to absorb the predicted
// load with headroom epsilon. avgCapacity must be positive.
func SupernodeCount(predicted, epsilon, avgCapacity float64) int {
	if avgCapacity <= 0 || predicted <= 0 {
		return 0
	}
	if epsilon < 0 {
		epsilon = 0
	}
	return int(math.Ceil((1 + epsilon) * predicted / avgCapacity))
}

// Candidate is a supernode candidate considered for pre-deployment.
type Candidate struct {
	// ID identifies the supernode.
	ID int
	// PrevSupported is N_i: how many players the supernode supported in
	// the previous time slot (a proxy for local demand).
	PrevSupported int
}

// Select chooses up to count supernodes from the candidates using the
// paper's rank-probability rule (Eq. 16): candidates are ranked by
// PrevSupported descending, and rank j is drawn with probability
// proportional to 1/j, without replacement. The harmonic weighting trades
// pure utilization for geographic spread.
func Select(candidates []Candidate, count int, r *rng.Rand) []Candidate {
	if count <= 0 || len(candidates) == 0 {
		return nil
	}
	ranked := append([]Candidate(nil), candidates...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].PrevSupported != ranked[j].PrevSupported {
			return ranked[i].PrevSupported > ranked[j].PrevSupported
		}
		return ranked[i].ID < ranked[j].ID
	})
	if count >= len(ranked) {
		return ranked
	}
	// Draw without replacement by harmonic rank weight.
	weights := make([]float64, len(ranked))
	for j := range weights {
		weights[j] = 1 / float64(j+1)
	}
	selected := make([]Candidate, 0, count)
	taken := make([]bool, len(ranked))
	for len(selected) < count {
		var total float64
		for j, w := range weights {
			if !taken[j] {
				total += w
			}
		}
		u := r.Float64() * total
		var acc float64
		pick := -1
		for j, w := range weights {
			if taken[j] {
				continue
			}
			acc += w
			if u < acc {
				pick = j
				break
			}
		}
		if pick < 0 { // numerical edge: take the last free slot
			for j := len(ranked) - 1; j >= 0; j-- {
				if !taken[j] {
					pick = j
					break
				}
			}
		}
		taken[pick] = true
		selected = append(selected, ranked[pick])
	}
	return selected
}

// SelectTopK is the greedy ablation baseline: take the count busiest
// candidates outright (see DESIGN.md §6).
func SelectTopK(candidates []Candidate, count int) []Candidate {
	if count <= 0 || len(candidates) == 0 {
		return nil
	}
	ranked := append([]Candidate(nil), candidates...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].PrevSupported != ranked[j].PrevSupported {
			return ranked[i].PrevSupported > ranked[j].PrevSupported
		}
		return ranked[i].ID < ranked[j].ID
	})
	if count > len(ranked) {
		count = len(ranked)
	}
	return ranked[:count]
}

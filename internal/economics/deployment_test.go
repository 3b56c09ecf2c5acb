package economics

import (
	"math"
	"testing"
)

// concaveCoverage is a diminishing-returns coverage curve: n(m) grows fast
// for the first supernodes and saturates at the population.
func concaveCoverage(population float64, halfAt float64) func(int) int {
	return func(m int) int {
		if m <= 0 {
			return 0
		}
		return int(population * float64(m) / (float64(m) + halfAt))
	}
}

func testModel() DeploymentModel {
	return DeploymentModel{
		ServerBandwidthValue: 0.002, // $ per kbps saved
		SupernodeReward:      0.001, // $ per kbps contributed
		StreamRate:           1200,
		UpdateRate:           150,
		SupernodeUpload:      24000, // carries ~20 streams
		CoveredPlayers:       concaveCoverage(10000, 40),
	}
}

func TestOptimalDeploymentValidation(t *testing.T) {
	m := testModel()
	m.CoveredPlayers = nil
	if _, _, err := OptimalDeployment(m, 10); err == nil {
		t.Error("nil coverage accepted")
	}
	m = testModel()
	m.StreamRate = 0
	if _, _, err := OptimalDeployment(m, 10); err == nil {
		t.Error("zero stream rate accepted")
	}
	m = testModel()
	m.ServerBandwidthValue = -1
	if _, _, err := OptimalDeployment(m, 10); err == nil {
		t.Error("negative price accepted")
	}
}

func TestOptimalDeploymentInterior(t *testing.T) {
	best, sweep, err := OptimalDeployment(testModel(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2001 {
		t.Fatalf("sweep length %d", len(sweep))
	}
	// The optimum is interior: deploying nothing saves nothing, and
	// past saturation every extra supernode only costs Λ.
	if best.Supernodes <= 0 || best.Supernodes >= 2000 {
		t.Errorf("optimum %d not interior", best.Supernodes)
	}
	if best.SavingUSD <= 0 {
		t.Errorf("optimal saving %v not positive", best.SavingUSD)
	}
	if sweep[0].SavingUSD != 0 {
		t.Errorf("zero fleet saving = %v", sweep[0].SavingUSD)
	}
	if sweep[2000].SavingUSD >= best.SavingUSD {
		t.Error("saturated fleet not worse than the optimum")
	}
}

func TestOptimalDeploymentCapacityBinds(t *testing.T) {
	// With few supernodes, coverage exceeds capacity: Eq. 4 must clip
	// covered players and mark the point infeasible.
	m := testModel()
	m.SupernodeUpload = 2400 // only 2 streams per supernode
	_, sweep, err := OptimalDeployment(m, 50)
	if err != nil {
		t.Fatal(err)
	}
	p := sweep[10]
	if p.Feasible {
		t.Errorf("capacity-bound point marked feasible: %+v", p)
	}
	if p.Covered != 10*2 {
		t.Errorf("covered %d, want capacity-clipped 20", p.Covered)
	}
}

func TestSavingConcaveAroundOptimum(t *testing.T) {
	// Sanity: the sweep is unimodal for a concave coverage curve (rises
	// to the optimum, falls after).
	best, sweep, err := OptimalDeployment(testModel(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	// Integer coverage makes the curve a staircase: between coverage
	// increments the saving dips by at most one supernode's update cost.
	maxDip := testModel().ServerBandwidthValue*testModel().UpdateRate + 1e-9
	for i := 1; i < best.Supernodes; i++ {
		if sweep[i].SavingUSD < sweep[i-1].SavingUSD-maxDip {
			t.Fatalf("saving fell before the optimum at m=%d", i)
		}
	}
	tail := sweep[best.Supernodes:]
	drops := 0
	for i := 1; i < len(tail); i++ {
		if tail[i].SavingUSD < tail[i-1].SavingUSD {
			drops++
		}
	}
	if drops < len(tail)/2 {
		t.Error("saving does not decline past the optimum")
	}
	// The optimum covers most of the population at these prices.
	if float64(best.Covered) < 0.5*10000 {
		t.Errorf("optimal coverage only %d players", best.Covered)
	}
	if math.IsNaN(best.SavingUSD) {
		t.Error("NaN saving")
	}
}

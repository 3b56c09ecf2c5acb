package economics

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestBandwidthReductionEq2(t *testing.T) {
	// B_r = n*R - Λ*m.
	if got := BandwidthReduction(100, 1200, 10, 150); !almostEq(got, 100*1200-10*150) {
		t.Errorf("reduction = %v", got)
	}
	// Supernodes that serve nobody only cost update bandwidth.
	if got := BandwidthReduction(0, 1200, 10, 150); got >= 0 {
		t.Errorf("idle fog should reduce nothing: %v", got)
	}
}

func TestProviderSavingEq3(t *testing.T) {
	// C_g = c_c*B_r - c_s*B_s.
	if got := ProviderSaving(2, 1000, 1, 500); !almostEq(got, 1500) {
		t.Errorf("saving = %v", got)
	}
}

func TestSupernodeDailyEconomics(t *testing.T) {
	e := SupernodeDailyEconomics(10, 1.0)
	if !almostEq(e.RewardUSD, 10) { // $1/GB * 1 GB/h * 10 h
		t.Errorf("reward = %v", e.RewardUSD)
	}
	wantCost := ServerPowerKW * ElectricityUSDPerKWh * 10
	if !almostEq(e.CostUSD, wantCost) {
		t.Errorf("cost = %v, want %v", e.CostUSD, wantCost)
	}
	if !almostEq(e.ProfitUSD, e.RewardUSD-e.CostUSD) {
		t.Error("profit inconsistent")
	}
	// The paper's observation: costs are trivial compared to rewards.
	if e.CostUSD > 0.1*e.RewardUSD {
		t.Errorf("electricity (%v) not trivial next to rewards (%v)", e.CostUSD, e.RewardUSD)
	}
}

func TestSupernodeDailyEconomicsClampsHours(t *testing.T) {
	if e := SupernodeDailyEconomics(-5, 1); e.HoursPerDay != 0 || e.RewardUSD != 0 {
		t.Errorf("negative hours: %+v", e)
	}
	if e := SupernodeDailyEconomics(30, 1); e.HoursPerDay != 24 {
		t.Errorf("hours not clamped to 24: %+v", e)
	}
}

func TestProviderSavings(t *testing.T) {
	e := ProviderSavings(100, 1.0)
	if !almostEq(e.RentingFeeUSD, 260) { // $2.6/h * 100 h
		t.Errorf("renting = %v", e.RentingFeeUSD)
	}
	if !almostEq(e.RewardToSupernodeUSD, 100) {
		t.Errorf("reward = %v", e.RewardToSupernodeUSD)
	}
	if !almostEq(e.SavingUSD, 160) {
		t.Errorf("saving = %v", e.SavingUSD)
	}
	if e2 := ProviderSavings(-1, 1); e2.Hours != 0 {
		t.Errorf("negative hours not clamped: %+v", e2)
	}
}

func TestSavingsPositiveForModestUploadProperty(t *testing.T) {
	// Property: whenever the supernode uploads less than $2.6/h worth of
	// bandwidth, the provider saves money vs renting EC2, proportionally
	// to hours.
	f := func(hoursRaw, gbRaw uint8) bool {
		hours := float64(hoursRaw%200) + 1
		gbPerHour := float64(gbRaw%26) / 10 // 0..2.5 GB/h < 2.6
		e := ProviderSavings(hours, gbPerHour)
		return e.SavingUSD >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnnualSupernodeFleetCost(t *testing.T) {
	// The paper's estimate: ~3,000 supernodes at 24 h/day should cost a
	// few million dollars a year — far less than a $400M datacenter.
	cost := AnnualSupernodeFleetCostUSD(3000, 24, 0.11)
	if cost < 1e6 || cost > 20e6 {
		t.Errorf("fleet cost %v outside the paper's millions-per-year band", cost)
	}
	if cost >= MediumDatacenterUSD {
		t.Error("fleet should be cheaper than building a datacenter")
	}
}

func TestPricingConstants(t *testing.T) {
	if ServerPowerKW != 0.25 {
		t.Error("server power changed from the paper's 0.25 kW")
	}
	if ElectricityUSDPerKWh != 0.108 {
		t.Error("electricity price changed from the paper's 10.8 c/kWh")
	}
	if RewardUSDPerGB != 1.0 {
		t.Error("reward changed from the paper's $1/GB")
	}
	if EC2GPUInstanceUSDPerHour != 2.6 {
		t.Error("EC2 price changed from the paper's $2.60/h")
	}
}

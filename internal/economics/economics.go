// Package economics implements the incentive and cost model of §3.1.1–3.1.2
// and the Fig. 16 analyses of the CloudFog paper: supernode contributor
// profit (Eq. 1), system bandwidth reduction (Eq. 2), game-service-provider
// saving (Eq. 3–5), and the reward/electricity/EC2-renting comparisons.
package economics

// Pricing constants from the paper's §4.4 analysis.
const (
	// ServerPowerKW is the electric power draw of a typical supernode
	// machine (0.25 kW).
	ServerPowerKW = 0.25
	// ElectricityUSDPerKWh is the US average electricity price the paper
	// uses (10.8 cents/kWh).
	ElectricityUSDPerKWh = 0.108
	// RewardUSDPerGB is what the provider pays per GB of supernode upload
	// ("the game service provider pays 1 dollar for 1 GB bandwidth").
	RewardUSDPerGB = 1.0
	// EC2GPUInstanceUSDPerHour is the g2.8xlarge hourly rate ($2.60).
	EC2GPUInstanceUSDPerHour = 2.6
	// MediumDatacenterUSD is the construction cost of a medium (~300,000
	// sq ft) datacenter the paper quotes (~$400 million).
	MediumDatacenterUSD = 400e6
)

// BandwidthReduction returns B_r = n*R − Λ*m (Eq. 2): the cloud bandwidth
// saved when m supernodes serve n players at streaming rate streamRate,
// costing only the per-supernode update stream updateRate (Λ).
func BandwidthReduction(supportedPlayers int, streamRate float64, supernodes int, updateRate float64) float64 {
	return float64(supportedPlayers)*streamRate - updateRate*float64(supernodes)
}

// ProviderSaving returns C_g = c_c*B_r − c_s*B_s (Eq. 3): the provider's
// net saving given the per-unit value of saved server bandwidth
// serverBandwidthValue (c_c), the bandwidth reduction reduction (B_r), the
// per-unit supernode reward rewardPerUnit (c_s), and the total supernode
// bandwidth contribution contributed (B_s).
func ProviderSaving(serverBandwidthValue, reduction, rewardPerUnit, contributed float64) float64 {
	return serverBandwidthValue*reduction - rewardPerUnit*contributed
}

// SupernodeEconomics is one row of the Fig. 16(a) analysis.
type SupernodeEconomics struct {
	// HoursPerDay is how long the supernode runs daily.
	HoursPerDay float64
	// RewardUSD is the daily reward earned from contributed bandwidth.
	RewardUSD float64
	// CostUSD is the daily electricity cost of running the machine.
	CostUSD float64
	// ProfitUSD is RewardUSD − CostUSD.
	ProfitUSD float64
}

// SupernodeDailyEconomics computes Fig. 16(a): daily rewards, costs and
// profits of a contributed supernode running hoursPerDay with the given
// upload rate (in GB/hour of actually contributed bandwidth).
func SupernodeDailyEconomics(hoursPerDay, uploadGBPerHour float64) SupernodeEconomics {
	if hoursPerDay < 0 {
		hoursPerDay = 0
	}
	if hoursPerDay > 24 {
		hoursPerDay = 24
	}
	reward := RewardUSDPerGB * uploadGBPerHour * hoursPerDay
	cost := ServerPowerKW * ElectricityUSDPerKWh * hoursPerDay
	return SupernodeEconomics{
		HoursPerDay: hoursPerDay,
		RewardUSD:   reward,
		CostUSD:     cost,
		ProfitUSD:   reward - cost,
	}
}

// ProviderEconomics is one row of the Fig. 16(b) analysis.
type ProviderEconomics struct {
	// Hours is the rental / operation duration.
	Hours float64
	// RentingFeeUSD is the cost of renting an EC2 GPU instance instead.
	RentingFeeUSD float64
	// RewardToSupernodeUSD is the cost of rewarding an equivalent
	// supernode for the same duration.
	RewardToSupernodeUSD float64
	// SavingUSD is RentingFeeUSD − RewardToSupernodeUSD.
	SavingUSD float64
}

// ProviderSavings computes Fig. 16(b): what the provider saves by rewarding
// a contributed supernode (uploading uploadGBPerHour) instead of renting an
// EC2 g2.8xlarge for the same hours.
func ProviderSavings(hours, uploadGBPerHour float64) ProviderEconomics {
	if hours < 0 {
		hours = 0
	}
	rent := EC2GPUInstanceUSDPerHour * hours
	reward := RewardUSDPerGB * uploadGBPerHour * hours
	return ProviderEconomics{
		Hours:                hours,
		RentingFeeUSD:        rent,
		RewardToSupernodeUSD: reward,
		SavingUSD:            rent - reward,
	}
}

// AnnualSupernodeFleetCostUSD returns the provider's yearly reward bill for
// a fleet of count supernodes running hoursPerDay every day at
// uploadGBPerHour — the paper's "3,000 supernodes, 24 h/day, ~2.9 M$/year"
// style estimate (with its $1/GB reward and ~0.11 GB/h effective upload).
func AnnualSupernodeFleetCostUSD(count int, hoursPerDay, uploadGBPerHour float64) float64 {
	daily := RewardUSDPerGB * uploadGBPerHour * hoursPerDay * float64(count)
	return daily * 365
}

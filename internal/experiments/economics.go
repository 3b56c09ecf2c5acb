package experiments

import (
	"fmt"

	"cloudfog/internal/economics"
	"cloudfog/internal/game"
)

// supernodeUploadGBPerHour is the effective upload of a contributed
// supernode serving a handful of ~1 Mbps streams with realistic idle time,
// used by the Fig. 16 analyses. 10 concurrent 1 Mbps streams at 30%
// utilization ≈ 1.35 GB/h; the paper's "2.9 M$/year for 3,000 supernodes"
// figure implies a comparable effective rate.
const supernodeUploadGBPerHour = 0.11 * 12

// Fig16a reproduces Fig. 16(a): a supernode contributor's daily rewards,
// electricity costs, and profits as a function of how many hours per day
// the machine runs.
func Fig16a(opts Options) (*Figure, error) {
	fig := &Figure{
		ID: "fig16a", Title: "rewards, costs and profits for supernode contributors",
		XLabel: "hours/day", YLabel: "dollars/day",
	}
	rewards := Series{Label: "Rewards"}
	costs := Series{Label: "Costs"}
	profits := Series{Label: "Profits"}
	for h := 2.0; h <= 24; h += 2 {
		e := economics.SupernodeDailyEconomics(h, supernodeUploadGBPerHour)
		rewards.X, rewards.Y = append(rewards.X, h), append(rewards.Y, e.RewardUSD)
		costs.X, costs.Y = append(costs.X, h), append(costs.Y, e.CostUSD)
		profits.X, profits.Y = append(profits.X, h), append(profits.Y, e.ProfitUSD)
	}
	fig.Series = []Series{rewards, costs, profits}
	return fig, nil
}

// Fig16b reproduces Fig. 16(b): the game service provider's renting fee
// for an EC2 GPU instance, the reward paid to an equivalent supernode, and
// the resulting saving, vs rental hours. Its table form closes with the
// §4.4 fleet estimate (AnnualFleetCost).
func Fig16b(opts Options) (*Figure, error) {
	fig := &Figure{
		ID: "fig16b", Title: "renting fees and savings for a game service provider",
		XLabel: "hours", YLabel: "dollars", Note: AnnualFleetCost(),
	}
	renting := Series{Label: "Renting fees"}
	rewards := Series{Label: "Rewards to SNs"}
	savings := Series{Label: "Savings"}
	for h := 20.0; h <= 200; h += 20 {
		e := economics.ProviderSavings(h, supernodeUploadGBPerHour)
		renting.X, renting.Y = append(renting.X, h), append(renting.Y, e.RentingFeeUSD)
		rewards.X, rewards.Y = append(rewards.X, h), append(rewards.Y, e.RewardToSupernodeUSD)
		savings.X, savings.Y = append(savings.X, h), append(savings.Y, e.SavingUSD)
	}
	fig.Series = []Series{renting, rewards, savings}
	return fig, nil
}

// Table2 reproduces Table 2: the video quality ladder (resolution, bitrate,
// latency requirement, latency tolerance degree per quality level).
func Table2(Options) (*Figure, error) {
	fig := &Figure{
		ID: "table2", Title: "video parameters for different quality levels",
		XLabel: "quality level", YLabel: "see series",
	}
	bitrate := Series{Label: "bitrate kbps"}
	latency := Series{Label: "latency req ms"}
	tolerance := Series{Label: "tolerance"}
	for _, q := range game.Ladder() {
		x := float64(q.Level)
		bitrate.X, bitrate.Y = append(bitrate.X, x), append(bitrate.Y, q.BitrateKbps)
		latency.X, latency.Y = append(latency.X, x), append(latency.Y, q.LatencyRequirementMs)
		tolerance.X, tolerance.Y = append(tolerance.X, x), append(tolerance.Y, q.ToleranceDegree)
	}
	fig.Series = []Series{bitrate, latency, tolerance}
	return fig, nil
}

// fleetEffectiveGBPerHour is the long-run average upload per supernode the
// paper's §4.4 fleet estimate implies (~2.9 M$/year for 3,000 machines at
// $1/GB): most hours are off-peak, so the 24 h average sits far below the
// busy-hour rate.
const fleetEffectiveGBPerHour = 0.11

// AnnualFleetCost states the paper's §4.4 fleet estimate: the yearly reward
// bill of a 3,000-supernode fleet running around the clock, against the
// cost of building one medium datacenter.
func AnnualFleetCost() string {
	fleet := economics.AnnualSupernodeFleetCostUSD(3000, 24, fleetEffectiveGBPerHour)
	return fmt.Sprintf("3000 supernodes, 24h/day: $%.1fM/year vs $%.0fM for one medium datacenter",
		fleet/1e6, economics.MediumDatacenterUSD/1e6)
}

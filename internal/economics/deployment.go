package economics

import "fmt"

// This file implements the provider-side deployment optimization the paper
// formulates in Eq. 3–5 and poses as future work in §5 ("determining the
// optimal number of cloud servers so that players can perceive the best
// QoE"): given how coverage grows with fleet size, choose the number of
// supernodes that maximizes the provider's saved cost
//
//	C_g = max_m ( c_c · [n(m)·R − Λ·m] − c_s · B_s(m) )
//
// subject to the capacity constraint Σ c_j·u_j ≥ n(m)·R (Eq. 4) and
// per-node utilization bounds (Eq. 5).

// DeploymentModel describes the provider's economics for a fleet sweep.
type DeploymentModel struct {
	// ServerBandwidthValue is c_c: revenue gained per unit of saved
	// server bandwidth.
	ServerBandwidthValue float64
	// SupernodeReward is c_s: the per-unit reward paid for contributed
	// bandwidth.
	SupernodeReward float64
	// StreamRate is R: the game-video streaming rate per player.
	StreamRate float64
	// UpdateRate is Λ: the per-supernode update-stream bandwidth.
	UpdateRate float64
	// SupernodeUpload is the mean usable upload capacity per supernode
	// (c_j·u_j under the Eq. 5 bound).
	SupernodeUpload float64
	// CoveredPlayers returns n(m): how many players m supernodes can
	// cover (a concave, increasing function — diminishing geographic
	// returns).
	CoveredPlayers func(m int) int
}

// DeploymentPoint is one fleet size of the sweep.
type DeploymentPoint struct {
	// Supernodes is m.
	Supernodes int
	// Covered is n(m), capped by the fleet's capacity constraint (Eq. 4).
	Covered int
	// SavingUSD is C_g at this fleet size.
	SavingUSD float64
	// Feasible reports whether Eq. 4 binds (the fleet can actually carry
	// the covered players).
	Feasible bool
}

// validate checks the model.
func (m DeploymentModel) validate() error {
	if m.ServerBandwidthValue <= 0 || m.SupernodeReward < 0 {
		return fmt.Errorf("economics: invalid prices c_c=%g c_s=%g", m.ServerBandwidthValue, m.SupernodeReward)
	}
	if m.StreamRate <= 0 || m.UpdateRate < 0 || m.SupernodeUpload <= 0 {
		return fmt.Errorf("economics: invalid rates R=%g Λ=%g upload=%g",
			m.StreamRate, m.UpdateRate, m.SupernodeUpload)
	}
	if m.CoveredPlayers == nil {
		return fmt.Errorf("economics: CoveredPlayers is required")
	}
	return nil
}

// evaluate computes one sweep point.
func (m DeploymentModel) evaluate(fleet int) DeploymentPoint {
	covered := m.CoveredPlayers(fleet)
	if covered < 0 {
		covered = 0
	}
	// Eq. 4: the fleet's usable upload must carry the covered players'
	// streams; excess coverage is clipped to what capacity sustains.
	capacityPlayers := int(float64(fleet) * m.SupernodeUpload / m.StreamRate)
	feasible := covered <= capacityPlayers
	if !feasible {
		covered = capacityPlayers
	}
	// Eq. 2 then Eq. 3. B_s is the bandwidth actually used for the
	// covered players (utilization below the Eq. 5 cap).
	reduction := BandwidthReduction(covered, m.StreamRate, fleet, m.UpdateRate)
	contributed := float64(covered) * m.StreamRate
	return DeploymentPoint{
		Supernodes: fleet,
		Covered:    covered,
		SavingUSD:  ProviderSaving(m.ServerBandwidthValue, reduction, m.SupernodeReward, contributed),
		Feasible:   feasible,
	}
}

// OptimalDeployment sweeps fleet sizes 0..maxSupernodes and returns the
// point maximizing C_g together with the whole sweep. It returns an error
// for an invalid model.
func OptimalDeployment(m DeploymentModel, maxSupernodes int) (best DeploymentPoint, sweep []DeploymentPoint, err error) {
	if err := m.validate(); err != nil {
		return DeploymentPoint{}, nil, err
	}
	if maxSupernodes < 0 {
		maxSupernodes = 0
	}
	sweep = make([]DeploymentPoint, 0, maxSupernodes+1)
	for fleet := 0; fleet <= maxSupernodes; fleet++ {
		p := m.evaluate(fleet)
		sweep = append(sweep, p)
		if fleet == 0 || p.SavingUSD > best.SavingUSD {
			best = p
		}
	}
	return best, sweep, nil
}

package core

import (
	"cloudfog/internal/stats"
)

// Metrics aggregates everything a simulation run measures, over the
// post-warm-up window only.
type Metrics struct {
	// ResponseLatencyMs accumulates total response latency per online
	// player per subcycle (playout + action + server comm + update +
	// render + stream).
	ResponseLatencyMs stats.Accumulator
	// ServerCommMs accumulates the server-communication component alone
	// (the Fig. 12 decomposition).
	ServerCommMs stats.Accumulator
	// Continuity accumulates per-session playback continuity.
	Continuity stats.Accumulator
	// ContinuityFog / ContinuityCloudServed break continuity down by the
	// session's final video source (diagnostics).
	ContinuityFog         stats.Accumulator
	ContinuityCloudServed stats.Accumulator
	// ContinuityByGame breaks continuity down by game ID (1-based; index 0
	// unused).
	ContinuityByGame [6]stats.Accumulator
	// Satisfied counts sessions meeting the 95% on-time bar.
	Satisfied stats.Ratio
	// CloudEgressMbps accumulates the cloud's total egress per subcycle:
	// game-video streams served directly by datacenters plus, for
	// CloudFog, the Λ update streams to active supernodes.
	CloudEgressMbps stats.Accumulator
	// PlayerJoinMs accumulates player-join latency (candidate request +
	// parallel delay tests + sequential capacity probes).
	PlayerJoinMs stats.Accumulator
	// MigrationMs accumulates the latency of reconnecting to a new
	// supernode after the serving supernode fails or is withdrawn.
	MigrationMs stats.Accumulator
	// SupernodeJoinMs accumulates supernode registration latency.
	SupernodeJoinMs stats.Accumulator
	// ServerAssignmentMs accumulates the wall-clock time of each periodic
	// social-network-based server assignment run.
	ServerAssignmentMs stats.Accumulator
	// FogServed counts player-subcycles served by supernodes vs total.
	FogServed stats.Ratio
	// QualityLevel accumulates the encoding quality level delivered.
	QualityLevel stats.Accumulator
	// BitrateSwitches counts adaptation bitrate changes per session.
	BitrateSwitches stats.Accumulator
	// OnlinePlayers accumulates the concurrent online count per subcycle.
	OnlinePlayers stats.Accumulator
	// ActiveSupernodes accumulates the deployed supernode count per
	// subcycle.
	ActiveSupernodes stats.Accumulator
	// Modularity accumulates the Γ achieved by assignment runs.
	Modularity stats.Accumulator
	// ResponseLatencyHist buckets every measured response-latency sample so
	// quantiles (P50/P95/P99) are available without retaining raw samples —
	// memory stays O(buckets), not O(players × subcycles). Created lazily
	// by ensureHist.
	ResponseLatencyHist *stats.Histogram
}

// Response-latency histogram shape: 0.5 ms buckets over [0, 2000) ms.
// Samples beyond 2 s (the pathological +Inf-latency clamp) land in the last
// bucket; every realistic response latency resolves to half a millisecond.
const (
	respHistMaxMs   = 2000
	respHistBuckets = 4000
)

func newResponseHist() *stats.Histogram {
	return stats.NewHistogram(0, respHistMaxMs, respHistBuckets)
}

// ensureHist makes the latency histogram usable on a zero-value Metrics:
// one allocation per Metrics lifetime, zero in steady state.
func (m *Metrics) ensureHist() {
	if m.ResponseLatencyHist == nil {
		m.ResponseLatencyHist = newResponseHist()
	}
}

// Snapshot is a compact, copyable summary of a Metrics for reporting.
type Snapshot struct {
	MeanResponseLatencyMs float64
	// ResponseLatencyP50Ms/P95Ms/P99Ms are bucket-interpolated quantiles
	// from ResponseLatencyHist (0.5 ms resolution).
	ResponseLatencyP50Ms float64
	ResponseLatencyP95Ms float64
	ResponseLatencyP99Ms float64
	MeanServerCommMs     float64
	MeanOtherLatencyMs   float64
	MeanContinuity       float64
	SatisfiedFraction    float64
	MeanCloudEgressMbps  float64
	MeanPlayerJoinMs     float64
	MeanMigrationMs      float64
	MeanSupernodeJoinMs  float64
	MeanServerAssignMs   float64
	FogServedFraction    float64
	MeanQualityLevel     float64
	MeanOnlinePlayers    float64
	MeanActiveSupernodes float64
	MeanModularity       float64
	Sessions             int
}

// Snapshot summarizes the metrics.
func (m *Metrics) Snapshot() Snapshot {
	var p50, p95, p99 float64
	if m.ResponseLatencyHist != nil {
		p50 = m.ResponseLatencyHist.Percentile(50)
		p95 = m.ResponseLatencyHist.Percentile(95)
		p99 = m.ResponseLatencyHist.Percentile(99)
	}
	return Snapshot{
		MeanResponseLatencyMs: m.ResponseLatencyMs.Mean(),
		ResponseLatencyP50Ms:  p50,
		ResponseLatencyP95Ms:  p95,
		ResponseLatencyP99Ms:  p99,
		MeanServerCommMs:      m.ServerCommMs.Mean(),
		MeanOtherLatencyMs:    m.ResponseLatencyMs.Mean() - m.ServerCommMs.Mean(),
		MeanContinuity:        m.Continuity.Mean(),
		SatisfiedFraction:     m.Satisfied.Value(),
		MeanCloudEgressMbps:   m.CloudEgressMbps.Mean(),
		MeanPlayerJoinMs:      m.PlayerJoinMs.Mean(),
		MeanMigrationMs:       m.MigrationMs.Mean(),
		MeanSupernodeJoinMs:   m.SupernodeJoinMs.Mean(),
		MeanServerAssignMs:    m.ServerAssignmentMs.Mean(),
		FogServedFraction:     m.FogServed.Value(),
		MeanQualityLevel:      m.QualityLevel.Mean(),
		MeanOnlinePlayers:     m.OnlinePlayers.Mean(),
		MeanActiveSupernodes:  m.ActiveSupernodes.Mean(),
		MeanModularity:        m.Modularity.Mean(),
		Sessions:              m.Satisfied.Total,
	}
}

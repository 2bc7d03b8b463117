package topk

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// Algo names a top-k engine of the FLN middleware family.
type Algo string

// The engines Run dispatches to: MEDRANK (MedRankOver), TA
// (ThresholdTopKOver, ThresholdTopKApprox), NRA (NRAOver), and CA (CAOver).
const (
	AlgoMedRank Algo = "medrank"
	AlgoTA      Algo = "ta"
	AlgoNRA     Algo = "nra"
	AlgoCA      Algo = "ca"
)

// DefaultCostRatio is the random:sequential cost ratio cR/cS assumed when a
// query sets none for an engine whose random accesses have a price (TA, CA):
// random access an order of magnitude more expensive than the next entry of
// an open scan, the classic middleware regime.
const DefaultCostRatio = 10

// ParseAlgo resolves an engine name; the empty name selects MEDRANK.
func ParseAlgo(name string) (Algo, error) {
	switch a := Algo(name); a {
	case "":
		return AlgoMedRank, nil
	case AlgoMedRank, AlgoTA, AlgoNRA, AlgoCA:
		return a, nil
	}
	return "", fmt.Errorf("unknown algo %q (want medrank, ta, nra, or ca)", name)
}

// Spec selects one engine run.
type Spec struct {
	Algo Algo
	K    int
	// CostRatio is the cR/cS weight; <= 0 selects the engine default (see
	// EffectiveCostRatio). It schedules CA's random accesses.
	CostRatio int
	// Theta is TA's approximation slack (see ThresholdTopKApprox); 0 is
	// exact. The other engines ignore it.
	Theta float64
	// Policy is MEDRANK's probe schedule. The other engines ignore it.
	Policy Policy
}

// EffectiveCostRatio resolves the spec's cR/cS weight: a positive CostRatio
// wins; otherwise TA and CA default to DefaultCostRatio, while MEDRANK and
// NRA run in the NRA regime (random access unused, so unpriced: 0).
func (s Spec) EffectiveCostRatio() int {
	if s.CostRatio > 0 {
		return s.CostRatio
	}
	if s.Algo == AlgoTA || s.Algo == AlgoCA {
		return DefaultCostRatio
	}
	return 0
}

// Run runs the spec's engine (MEDRANK when Algo is empty) over sources; acc
// follows the MedRankOver convention. ListSources builds the sources of
// in-memory rankings.
func Run(ctx context.Context, spec Spec, sources []faults.Source, acc *telemetry.AccessAccountant) (*Result, error) {
	switch spec.Algo {
	case AlgoMedRank, "":
		return MedRankOver(ctx, sources, spec.K, spec.Policy, acc)
	case AlgoTA:
		return taOver(ctx, sources, spec.K, spec.Theta, acc)
	case AlgoNRA:
		return caOver(ctx, sources, spec.K, 0, acc)
	case AlgoCA:
		return caOver(ctx, sources, spec.K, spec.EffectiveCostRatio(), acc)
	}
	return nil, fmt.Errorf("topk: unknown algo %q", spec.Algo)
}

package metrics

import (
	"repro/internal/cache"
	"repro/internal/ranking"
)

// Stable cache metric IDs of the four paper metrics. Custom distances cached
// through Cached must pick IDs outside this range; two different distance
// functions sharing an ID would serve each other's values.
const (
	CacheIDKProf uint32 = iota + 1
	CacheIDFProf
	CacheIDKHaus
	CacheIDFHaus
)

// Cached wraps a symmetric workspace-aware distance with the memoization
// layer: a hit costs one fingerprint read and one sharded map probe instead
// of the metric kernel, and a miss computes through d and inserts. The
// wrapper composes with every ...With engine (DistanceMatrixWith,
// ResumeDistanceMatrix, SumDistanceWith, BestOfInputsWith, ParallelEach
// candidate loops) because it is itself a DistanceWS.
//
// d must be symmetric (d(a,b) == d(b,a)) and pure: keys canonicalize the
// pair order, and a hit substitutes the memoized value for a recompute,
// which is bit-for-bit identical exactly because the function is
// deterministic in its arguments. All four paper metrics qualify; use
// distinct IDs for distinct distance functions.
func Cached(c *cache.Cache, id uint32, d DistanceWS) DistanceWS {
	return func(ws *Workspace, a, b *ranking.PartialRanking) (float64, error) {
		k := cache.PairKey(id, a.Fingerprint(), b.Fingerprint())
		if v, ok := c.Get(k); ok {
			return v, nil
		}
		v, err := d(ws, a, b)
		if err != nil {
			return 0, err
		}
		c.Put(k, v)
		return v, nil
	}
}

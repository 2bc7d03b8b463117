package topk

import (
	"context"
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// listSource is the infallible faults.Source: a cursor over an in-memory
// partial ranking. Entries arrive in non-decreasing position order, ties
// within a bucket by ascending element ID. Its accesses never fail; every
// successful one is charged to list `list` of the shared accountant, so a
// whole run's sequential, bucket-granular, and random accesses land in a
// single telemetry.AccessReport.
type listSource struct {
	pr     *ranking.PartialRanking
	bucket int
	offset int
	acc    *telemetry.AccessAccountant
	list   int
}

// NewListSource exposes a partial ranking as a faults.Source that charges its
// sequential and random accesses to list `list` of acc. Wrap it with
// faults.Inject and faults.WithRetry to build a chaos pipeline.
func NewListSource(pr *ranking.PartialRanking, acc *telemetry.AccessAccountant, list int) faults.Source {
	return &listSource{pr: pr, acc: acc, list: list}
}

// ListSources validates in-memory rankings (at least one, one shared domain)
// and exposes each as a list source charging one shared accountant — the
// inputs Run and the *Over engines take.
func ListSources(rankings []*ranking.PartialRanking) ([]faults.Source, *telemetry.AccessAccountant, error) {
	if len(rankings) == 0 {
		return nil, nil, fmt.Errorf("topk: no input rankings")
	}
	if err := ranking.CheckSameDomain(rankings...); err != nil {
		return nil, nil, err
	}
	acc := telemetry.NewAccessAccountant(len(rankings))
	sources := make([]faults.Source, len(rankings))
	for i, r := range rankings {
		sources[i] = NewListSource(r, acc, i)
	}
	return sources, acc, nil
}

// Next probes the next entry. Every successful probe is counted.
func (s *listSource) Next(context.Context) (Entry, bool, error) {
	for s.bucket < s.pr.NumBuckets() {
		b := s.pr.Bucket(s.bucket)
		if s.offset < len(b) {
			e := Entry{Elem: b[s.offset], Pos2: s.pr.BucketPos2(s.bucket)}
			s.offset++
			s.acc.Sequential(s.list)
			return e, true, nil
		}
		s.bucket++
		s.offset = 0
	}
	return Entry{}, false, nil
}

// Peek2 returns the doubled position of the next unprobed entry (the
// frontier), or math.MaxInt64 when exhausted. Peeking is free: a sequential
// scan knows it has not yet passed a given position.
func (s *listSource) Peek2() int64 {
	b, off := s.bucket, s.offset
	for b < s.pr.NumBuckets() {
		if off < s.pr.BucketSize(b) {
			return s.pr.BucketPos2(b)
		}
		b++
		off = 0
	}
	return math.MaxInt64
}

func (s *listSource) Pos2(_ context.Context, elem int) (int64, error) {
	s.acc.Random(s.list)
	return s.pr.Pos2(elem), nil
}

func (s *listSource) N() int { return s.pr.N() }

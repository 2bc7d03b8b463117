package topk

import "math"

// This file holds the order statistics every engine certifies with, written
// to allocate nothing per access: an in-place selection over caller-owned
// buffers, a typed bounded heap, and the frontier vector with its cached
// needed-th smallest value.

// nthSmallest returns the k-th smallest (1-based) of xs, reordering xs in
// place: a quickselect with a median-of-three pivot whose small ranges finish
// by insertion sort. k must be in [1, len(xs)]. Callers select over a per-run
// scratch copy when the order of xs matters.
func nthSmallest(xs []int64, k int) int64 {
	lo, hi, k := 0, len(xs)-1, k-1
	for hi-lo > 12 {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		p, i, j := xs[mid], lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] <= p <= xs[i..hi], and anything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return p
		}
	}
	for a := lo + 1; a <= hi; a++ {
		v, b := xs[a], a
		for ; b > lo && xs[b-1] > v; b-- {
			xs[b] = xs[b-1]
		}
		xs[b] = v
	}
	return xs[k]
}

// lexLT orders (value, element) pairs lexicographically — the tie-break every
// engine in this package uses. Strict interval domination under this order is
// what makes NRA's certified set identical to the exact engines': if
// (worst(w), w) < (best(z), z) then (median(w), w) < (median(z), z), because
// median(w) <= worst(w) and best(z) <= median(z), and at equal bounds the
// element IDs decide exactly as they do in the exact answer.
func lexLT(v1 int64, e1 int, v2 int64, e2 int) bool {
	return v1 < v2 || (v1 == v2 && e1 < e2)
}

// pair is an (value, element) pair ordered by lexLT.
type pair struct {
	v int64
	e int
}

// pairMaxHeap keeps the k lexicographically smallest pairs offered to it; the
// root is the largest of them. Its values are the k smallest values offered,
// so the root's value is the k-th smallest median (MEDRANK, TA) or the
// domination bar (NRA, CA).
type pairMaxHeap []pair

// offer adds p when fewer than k pairs are held, else replaces the root when
// p is smaller.
func (h *pairMaxHeap) offer(p pair, k int) {
	s := *h
	if len(s) < k {
		s = append(s, p)
		for i := len(s) - 1; i > 0; {
			parent := (i - 1) / 2
			if !lexLT(s[parent].v, s[parent].e, s[i].v, s[i].e) {
				break
			}
			s[i], s[parent] = s[parent], s[i]
			i = parent
		}
		*h = s
		return
	}
	if len(s) == 0 || !lexLT(p.v, p.e, s[0].v, s[0].e) {
		return
	}
	s[0] = p
	for i := 0; ; {
		big, l := i, 2*i+1
		if l < len(s) && lexLT(s[big].v, s[big].e, s[l].v, s[l].e) {
			big = l
		}
		if r := l + 1; r < len(s) && lexLT(s[big].v, s[big].e, s[r].v, s[r].e) {
			big = r
		}
		if big == i {
			return
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
}

// frontiers holds the frontier of each list slot — the doubled position of
// its next unprobed entry, MaxInt64 once the list is exhausted or dead — and
// caches the two order statistics the engines read from it until a frontier
// value changes: the needed-th smallest frontier, which lower-bounds the
// median of every element no list has revealed, and the first slot of
// smallest frontier, GlobalMerge's next probe. On few-valued lists a
// frontier moves only at a bucket boundary, so nearly every probe leaves both
// cached values valid.
type frontiers struct {
	pos     []int64
	needed  int
	lb      int64 // the needed-th smallest of pos, valid when lbOK
	lbOK    bool
	min     int // first slot of smallest frontier (-1: all exhausted), valid when minOK
	minOK   bool
	scratch []int64
}

func newFrontiers(m, needed int) frontiers {
	return frontiers{pos: make([]int64, m), needed: needed, scratch: make([]int64, m)}
}

// set updates slot i's frontier and reports whether its value changed.
func (f *frontiers) set(i int, v int64) bool {
	if f.pos[i] == v {
		return false
	}
	f.pos[i] = v
	f.lbOK, f.minOK = false, false
	return true
}

// setNeeded changes the order statistic unseenBound selects (after a list
// death).
func (f *frontiers) setNeeded(needed int) {
	f.needed, f.lbOK = needed, false
}

// unseenBound returns the needed-th smallest frontier: a lower bound on the
// median of every element no list has revealed yet.
func (f *frontiers) unseenBound() int64 {
	if !f.lbOK {
		f.lb = nthSmallest(append(f.scratch[:0], f.pos...), f.needed)
		f.lbOK = true
	}
	return f.lb
}

// argmin returns the first slot holding the smallest frontier, or -1 when
// every slot is exhausted.
func (f *frontiers) argmin() int {
	if !f.minOK {
		f.min = -1
		best := int64(math.MaxInt64)
		for i, p := range f.pos {
			if p < best {
				f.min, best = i, p
			}
		}
		f.minOK = true
	}
	return f.min
}

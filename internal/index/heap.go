package index

import (
	"cmp"
	"slices"
)

// resultHeap is a bounded max-heap keeping the k smallest results under
// the total order (Dist, ID). The ID tie-break makes the kept set — not
// just the kept distances — deterministic, so a parallel search that
// evaluates leaves in a different order returns bit-identical results to
// the sequential traversal even when distances tie at the k-th place.
type resultHeap struct {
	k     int
	items []Result
}

func newResultHeap(k int) *resultHeap {
	if k < 0 {
		k = 0
	}
	cap := k
	if cap > 1024 {
		cap = 1024 // huge k (e.g. k >= collection size) fills lazily
	}
	return &resultHeap{k: k, items: make([]Result, 0, cap)}
}

// resultLess orders results ascending by (Dist, ID).
func resultLess(a, b Result) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// bound returns the current kth-best distance, or +Inf when fewer than k
// results are held. A non-positive k admits nothing: the bound is -Inf.
func (h *resultHeap) bound() float64 {
	if h.k <= 0 {
		return -inf
	}
	if len(h.items) < h.k {
		return inf
	}
	return h.items[0].Dist
}

func (h *resultHeap) offer(r Result) {
	if h.k <= 0 {
		return
	}
	if len(h.items) < h.k {
		h.items = append(h.items, r)
		h.up(len(h.items) - 1)
		return
	}
	if !resultLess(r, h.items[0]) {
		return
	}
	h.items[0] = r
	h.down(0)
}

// merge offers every result held by other into h.
func (h *resultHeap) merge(other *resultHeap) {
	for _, r := range other.items {
		h.offer(r)
	}
}

func (h *resultHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !resultLess(h.items[parent], h.items[i]) {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *resultHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && resultLess(h.items[largest], h.items[l]) {
			largest = l
		}
		if r < n && resultLess(h.items[largest], h.items[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

func (h *resultHeap) sorted() []Result {
	out := make([]Result, len(h.items))
	copy(out, h.items)
	slices.SortFunc(out, func(a, b Result) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
	return out
}

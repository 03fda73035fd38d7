package hotalloc

import (
	"sort"
	"strconv"
)

// groupCold does everything the positive fixture does, unannotated: the
// analyzer must stay silent off the hot path.
func groupCold(rows []row) string {
	seen := make(map[int64]bool)
	var keys []int64
	name := ""
	for _, r := range rows {
		seen[r.key] = true
		keys = append(keys, r.key)
		name += r.val
		sink(r.key)
	}
	return name
}

// sizedHot pre-sizes every buffer and calls only concrete-typed helpers:
// the sanctioned kernel idiom.
//
//starklint:hotpath
func sizedHot(rows []row) []int64 {
	keys := make([]int64, 0, len(rows))
	for _, r := range rows {
		keys = append(keys, r.key)
		sinkConcrete(r.key)
	}
	buf := make([]byte, 0, 16)
	buf = strconv.AppendInt(buf, int64(len(rows)), 10)
	_ = len(buf)
	return keys
}

var pushed int64

func onPush() { pushed++ }

// scheduleBound hands the queue only values that capture nothing: a named
// function, and a literal that touches package state alone. A capturing
// predicate handed to package sort is called before Search returns.
//
//starklint:hotpath
func scheduleBound(q *queue, keys []int64, k int64) int {
	q.push(onPush)
	q.push(func() { pushed += 2 })
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
}

// sendPointer boxes only pointer-shaped values: a *row, a map and a func
// are stored in the interface word itself and allocate nothing.
//
//starklint:hotpath
func sendPointer(s *sender, r *row, m map[int64]bool) {
	s.send(deliverRow, r)
	sink(m)
	sink(deliverRow)
}

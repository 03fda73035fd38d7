package main

import "stark"

// Naive reference evaluators: the obvious map-based answer to what each
// workload's jobs compute, sharing no code with the engine. Set-up runs them
// once; the warm-up iterations must agree with them.

// refDistinctInRange is a cogroup-filter-count query: the distinct keys of
// the given steps that fall inside [lo, hi].
func refDistinctInRange(steps [][]stark.Record, lo, hi string) int64 {
	seen := map[string]bool{}
	for _, recs := range steps {
		for _, r := range recs {
			if r.Key >= lo && r.Key <= hi {
				seen[r.Key] = true
			}
		}
	}
	return int64(len(seen))
}

// refRecordCount is a repartition-count job: every record survives.
func refRecordCount(parts [][]stark.Record) int64 {
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	return n
}

// refJoin is an inner join reduced to one pair count per key: how many keys
// both sides share and how many pairs they form.
func refJoin(left, right []stark.Record) (keys, pairs int64) {
	nl := map[string]int64{}
	for _, r := range left {
		nl[r.Key]++
	}
	nr := map[string]int64{}
	for _, r := range right {
		nr[r.Key]++
	}
	for k, l := range nl {
		if r := nr[k]; r > 0 {
			keys++
			pairs += l * r
		}
	}
	return keys, pairs
}

// refSumByKey is map-then-reduceByKey(sum) over integer values, restricted
// to the records keep accepts after mapping.
func refSumByKey(recs []stark.Record, mapv func(int) int, keep func(int) bool) map[string]int {
	sums := map[string]int{}
	for _, r := range recs {
		v := mapv(r.Value.(int))
		if keep == nil || keep(v) {
			sums[r.Key] += v
		}
	}
	return sums
}

// sumOut reduces a per-key sum table to the jobOut a collect of it yields.
func sumOut(sums map[string]int) jobOut {
	out := jobOut{n: int64(len(sums))}
	for _, v := range sums {
		out.sum += int64(v)
	}
	return out
}

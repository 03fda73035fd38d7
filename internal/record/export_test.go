package record

import "sort"

// GroupByKey is the naive map-of-slices grouping: key -> values in input
// order, plus the keys sorted. It is the reference the kernel tests compare
// against and deliberately shares no code with the kernel.
func GroupByKey(rs []Record) (map[string][]any, []string) {
	m := make(map[string][]any, len(rs))
	var keys []string
	for _, r := range rs {
		if _, ok := m[r.Key]; !ok {
			keys = append(keys, r.Key)
		}
		m[r.Key] = append(m[r.Key], r.Value)
	}
	sort.Strings(keys)
	return m, keys
}

// CoGroupNaive is the map-based cogroup the kernel replaced, kept verbatim
// as the reference: one record per key in first-seen order, Groups[s] nil
// for a side without the key.
func CoGroupNaive(sides [][]Record) []Record {
	n := len(sides)
	grouped := make(map[string]CoGrouped)
	var order []string
	for s := 0; s < n; s++ {
		for _, rec := range sides[s] {
			cg, ok := grouped[rec.Key]
			if !ok {
				cg = &CoGroupedSides{Groups: make([][]any, n)}
				grouped[rec.Key] = cg
				order = append(order, rec.Key)
			}
			cg.Groups[s] = append(cg.Groups[s], rec.Value)
		}
	}
	out := make([]Record, 0, len(order))
	for _, k := range order {
		out = append(out, Record{Key: k, Value: grouped[k]})
	}
	return out
}

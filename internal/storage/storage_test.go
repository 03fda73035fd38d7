package storage

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"stark/internal/partition"
	"stark/internal/record"
)

// hasMapOutput reports whether a map partition's output is committed.
func hasMapOutput(s *Store, id, mapPart int) bool {
	_, out := s.committedOutput(id, mapPart)
	return out != nil
}

// mapOutputOf builds the map output WriteMapOutputBatch takes from
// per-reduce row buckets: rows concatenated in ascending reduce order under
// the identity permutation, their keys concatenated in the same order, one
// span per bucket (empty ones included) with its first key's offset, the
// bucket's raw size as Bytes and its real KeySum64 as Sum.
func mapOutputOf(buckets map[int][]record.Record) *record.PartitionedBatch {
	parts := make([]int, 0, len(buckets))
	for p := range buckets {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	var rows []record.Record
	var keys strings.Builder
	spans := make([]record.Span, 0, len(parts))
	for _, p := range parts {
		lo := len(rows)
		rows = append(rows, buckets[p]...)
		spans = append(spans, record.Span{Part: int32(p), Lo: int32(lo), Hi: int32(len(rows)), Key: int32(keys.Len()),
			Bytes: bucketBytes(buckets[p]), Sum: record.KeySum64(buckets[p])})
		for _, r := range buckets[p] {
			keys.WriteString(r.Key)
		}
	}
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	return &record.PartitionedBatch{Rows: rows, Perm: perm, Keys: keys.String(), Spans: spans}
}

func bucketBytes(rs []record.Record) int64 {
	var n int64
	for _, r := range rs {
		n += record.SizeOfRecord(r)
	}
	return n
}

func TestShuffleLifecycle(t *testing.T) {
	s := NewStore()
	if err := s.RegisterShuffle(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterShuffle(1, 2, 3); err != nil {
		t.Fatalf("idempotent register: %v", err)
	}
	if err := s.RegisterShuffle(1, 4, 3); err == nil {
		t.Fatal("conflicting geometry accepted")
	}
	if s.ShuffleComplete(1) {
		t.Fatal("empty shuffle complete")
	}
	if got := s.MissingMapOutputs(1); len(got) != 2 {
		t.Fatalf("missing = %v", got)
	}
	a, a2 := record.Pair("a", 1), record.Pair("a2", 1)
	if err := s.WriteMapOutputBatch(1, 0, mapOutputOf(map[int][]record.Record{
		0: {a},
		2: {record.Pair("c", 1)},
	})); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadReduce(1, 0); err == nil {
		t.Fatal("read from incomplete shuffle succeeded")
	}
	if err := s.WriteMapOutputBatch(1, 1, mapOutputOf(map[int][]record.Record{0: {a2}})); err != nil {
		t.Fatal(err)
	}
	if !s.ShuffleComplete(1) {
		t.Fatal("shuffle not complete")
	}
	data, bytes, err := s.ReadReduce(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2 || data[0] != a || data[1] != a2 || bytes != bucketBytes(data) {
		t.Fatalf("data=%v bytes=%d", data, bytes)
	}
	// Reduce partition with no buckets reads empty.
	data, bytes, err = s.ReadReduce(1, 1)
	if err != nil || len(data) != 0 || bytes != 0 {
		t.Fatalf("empty reduce: %v %d %v", data, bytes, err)
	}
}

func TestShuffleValidation(t *testing.T) {
	s := NewStore()
	if err := s.WriteMapOutputBatch(9, 0, mapOutputOf(nil)); err == nil {
		t.Fatal("write to unknown shuffle accepted")
	}
	if _, _, err := s.ReadReduce(9, 0); err == nil {
		t.Fatal("read unknown shuffle accepted")
	}
	if err := s.RegisterShuffle(2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMapOutputBatch(2, 5, mapOutputOf(nil)); err == nil {
		t.Fatal("out-of-range map partition accepted")
	}
	if err := s.WriteMapOutputBatch(2, -1, mapOutputOf(nil)); err == nil {
		t.Fatal("negative map partition accepted")
	}
	if err := s.WriteMapOutputBatch(2, 0, mapOutputOf(map[int][]record.Record{-1: nil})); err == nil {
		t.Fatal("negative reduce partition accepted")
	}
	// A write rejected on its last span must not have committed the earlier
	// ones.
	if err := s.WriteMapOutputBatch(2, 0, mapOutputOf(map[int][]record.Record{
		0: {record.Pair("a", 1)}, 7: nil,
	})); err == nil {
		t.Fatal("out-of-range reduce partition accepted")
	}
	if hasMapOutput(s, 2, 0) || s.ShuffleComplete(2) || len(s.CommittedMapOutputs()) != 0 {
		t.Fatal("rejected write left state behind")
	}
	// Span position ranges are checked like span partitions, against the
	// permutation, and the permutation against the rows; key offsets against
	// the key bytes and each other: a bad one would otherwise commit and
	// panic in the index build. Nothing rejected is written into.
	ab := []record.Record{record.Pair("a", 1), record.Pair("b", 2)}
	for name, pb := range map[string]*record.PartitionedBatch{
		"negative Lo":        {Rows: ab, Perm: []int32{0, 1}, Keys: "ab", Spans: []record.Span{{Part: 0, Lo: -1, Hi: 1}}},
		"Lo > Hi":            {Rows: ab, Perm: []int32{0, 1}, Keys: "ab", Spans: []record.Span{{Part: 0, Lo: 2, Hi: 1}}},
		"Hi past Perm":       {Rows: ab, Perm: []int32{0, 1}, Keys: "ab", Spans: []record.Span{{Part: 0, Lo: 0, Hi: 3}}},
		"bad range, last":    {Rows: ab, Perm: []int32{0, 1}, Keys: "ab", Spans: []record.Span{{Part: 0, Lo: 0, Hi: 1}, {Part: 0, Lo: 1, Hi: 3, Key: 1}}},
		"empty past the end": {Rows: ab, Perm: []int32{0, 1}, Keys: "ab", Spans: []record.Span{{Part: 0, Lo: 3, Hi: 3, Key: 2}}},
		"short Perm":         {Rows: ab, Perm: []int32{1}, Keys: "b", Spans: []record.Span{{Part: 0, Lo: 0, Hi: 1}}},
		"long Perm":          {Rows: ab, Perm: []int32{1, 0, 1}, Keys: "bab", Spans: []record.Span{{Part: 0, Lo: 0, Hi: 2}}},
		"nil Perm over rows": {Rows: ab, Spans: []record.Span{{Part: 0, Lo: 0, Hi: 0}}},
		"Perm over no rows":  {Perm: []int32{0}},
		"negative Key":       {Rows: ab, Perm: []int32{0, 1}, Keys: "ab", Spans: []record.Span{{Part: 0, Lo: 0, Hi: 2, Key: -1}}},
		"Key past Keys":      {Rows: ab, Perm: []int32{0, 1}, Keys: "ab", Spans: []record.Span{{Part: 0, Lo: 0, Hi: 1}, {Part: 0, Lo: 1, Hi: 2, Key: 3}}},
		"Key past no Keys":   {Rows: ab, Perm: []int32{0, 1}, Spans: []record.Span{{Part: 0, Lo: 0, Hi: 2, Key: 1}}},
		"descending Key":     {Rows: ab, Perm: []int32{0, 1}, Keys: "ab", Spans: []record.Span{{Part: 0, Lo: 0, Hi: 1, Key: 1}, {Part: 0, Lo: 1, Hi: 2, Key: 0}}},
	} {
		then := record.PartitionedBatch{Rows: slices.Clone(pb.Rows), Perm: slices.Clone(pb.Perm), Keys: pb.Keys, Spans: slices.Clone(pb.Spans)}
		if err := s.WriteMapOutputBatch(2, 0, pb); err == nil {
			t.Fatalf("output with %s accepted", name)
		}
		if hasMapOutput(s, 2, 0) || s.ShuffleComplete(2) || len(s.CommittedMapOutputs()) != 0 {
			t.Fatalf("write rejected for %s left state behind", name)
		}
		if !slices.Equal(pb.Rows, then.Rows) || !slices.Equal(pb.Perm, then.Perm) || pb.Keys != then.Keys || !slices.Equal(pb.Spans, then.Spans) {
			t.Fatalf("write rejected for %s wrote into its output", name)
		}
	}
	// Spans out of partition order are rejected like a bad span: an index
	// build looks a range's first span up by binary search.
	if err := s.RegisterShuffle(5, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMapOutputBatch(5, 0, &record.PartitionedBatch{Rows: ab, Perm: []int32{0, 1}, Keys: "ab",
		Spans: []record.Span{{Part: 1, Lo: 0, Hi: 1}, {Part: 0, Lo: 1, Hi: 2, Key: 1}}}); err == nil || hasMapOutput(s, 5, 0) {
		t.Fatalf("output with descending spans: %v, committed %v", err, hasMapOutput(s, 5, 0))
	}
	// Equal key offsets are not descending: a bucket of empty keys takes no
	// key bytes, and the span after it starts where it does.
	empty := []record.Record{record.Pair("", 1), record.Pair("b", 2)}
	if err := s.WriteMapOutputBatch(5, 0, &record.PartitionedBatch{Rows: empty, Perm: []int32{0, 1}, Keys: "b",
		Spans: []record.Span{{Part: 0, Lo: 0, Hi: 1, Sum: record.KeySum64(empty[:1])}, {Part: 1, Lo: 1, Hi: 2, Sum: record.KeySum64(empty[1:])}}}); err != nil {
		t.Fatalf("output with an empty-keyed bucket: %v", err)
	}
	for r, want := range empty {
		if data, _, err := s.ReadReduce(5, r); err != nil || len(data) != 1 || data[0] != want {
			t.Fatalf("ReadReduce(5, %d) = %v, %v; want [%v]", r, data, err, want)
		}
	}
	if err := s.WriteMapOutputBatch(2, 0, mapOutputOf(map[int][]record.Record{0: {record.Pair("a", 1)}})); err != nil {
		t.Fatal(err)
	}
	// Reads and the per-output operations range-check like the write does:
	// the shuffle is complete here, so only the index can be at fault.
	for _, r := range []int{-1, 1, 6} {
		if data, _, err := s.ReadReduce(2, r); err == nil || data != nil {
			t.Fatalf("ReadReduce(2, %d) = %v, %v; want a range error", r, data, err)
		}
	}
	for _, m := range []int{-1, 1, 6} {
		if hasMapOutput(s, 2, m) || s.CorruptMapOutput(2, m) || s.DropMapOutput(2, m) {
			t.Fatalf("map partition %d outside [0,1) reported as present", m)
		}
	}
	if data, _, err := s.ReadReduce(2, 0); err != nil || len(data) != 1 {
		t.Fatalf("out-of-range probes disturbed the shuffle: %v, %v", data, err)
	}
	// A rejected overwrite is not an overwrite: the committed output stays,
	// and the index built by the read above stays current.
	if err := s.WriteMapOutputBatch(2, 0, &record.PartitionedBatch{Rows: ab, Perm: []int32{0, 1}, Keys: "ab", Spans: []record.Span{{Part: 0, Lo: 1, Hi: 0}}}); err == nil {
		t.Fatal("overwrite with Lo > Hi accepted")
	}
	if st := s.shuffles[2]; st.dirty || st.committed != 1 {
		t.Fatalf("rejected overwrite left dirty=%v committed=%d", st.dirty, st.committed)
	}
	if data, _, err := s.ReadReduce(2, 0); err != nil || len(data) != 1 || data[0].Key != "a" {
		t.Fatalf("rejected overwrite disturbed the shuffle: %v, %v", data, err)
	}
	// The range error comes before the completeness one: a caller's bad
	// index is reported whatever state the shuffle is in.
	if err := s.RegisterShuffle(3, 2, 2); err != nil {
		t.Fatal(err)
	}
	_, _, errRange := s.ReadReduce(3, 2)
	_, _, errIncomplete := s.ReadReduce(3, 1)
	if errRange == nil || errIncomplete == nil || errRange.Error() == errIncomplete.Error() {
		t.Fatalf("incomplete shuffle: out-of-range read %v, in-range read %v", errRange, errIncomplete)
	}
}

func TestMapOutputOverwrite(t *testing.T) {
	s := NewStore()
	if err := s.RegisterShuffle(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	first := []record.Record{record.Pair("a", 1)}
	second := []record.Record{record.Pair("b", 1), record.Pair("cc", 2)}
	for _, rows := range [][]record.Record{first, second} {
		if err := s.WriteMapOutputBatch(1, 0, mapOutputOf(map[int][]record.Record{0: rows})); err != nil {
			t.Fatal(err)
		}
	}
	data, bytes, err := s.ReadReduce(1, 0)
	if err != nil || len(data) != 2 || data[0] != second[0] || bytes != bucketBytes(second) {
		t.Fatalf("after overwrite: data=%v bytes=%d, %v", data, bytes, err)
	}
}

func TestCheckpoints(t *testing.T) {
	s := NewStore()
	if s.HasCheckpoint(1, 0) {
		t.Fatal("phantom checkpoint")
	}
	s.WriteCheckpoint(1, 0, []record.Record{record.Pair("k", 1)}, 100)
	s.WriteCheckpoint(1, 1, nil, 50)
	if !s.HasCheckpoint(1, 0) || !s.HasCheckpoint(1, 1) {
		t.Fatal("checkpoints missing")
	}
	if s.TotalCheckpointBytes() != 150 {
		t.Fatalf("total = %d", s.TotalCheckpointBytes())
	}
	data, bytes, err := s.ReadCheckpoint(1, 0)
	if err != nil || bytes != 100 || len(data) != 1 {
		t.Fatalf("read: %v %d %v", data, bytes, err)
	}
	if _, _, err := s.ReadCheckpoint(2, 0); err == nil {
		t.Fatal("read missing checkpoint succeeded")
	}
	// Overwrite adjusts the running total instead of double counting.
	s.WriteCheckpoint(1, 0, nil, 80)
	if s.TotalCheckpointBytes() != 130 {
		t.Fatalf("total after overwrite = %d", s.TotalCheckpointBytes())
	}
}

func TestCorruptMapOutputDetectedAndHealedByOverwrite(t *testing.T) {
	s := NewStore()
	if err := s.RegisterShuffle(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	write := func(mapPart int) {
		if err := s.WriteMapOutputBatch(1, mapPart, mapOutputOf(map[int][]record.Record{
			0: {record.Pair("a", mapPart)},
			1: {record.Pair("b", mapPart)},
		})); err != nil {
			t.Fatal(err)
		}
	}
	write(0)
	write(1)
	if !s.CorruptMapOutput(1, 1) {
		t.Fatal("corrupt reported no block")
	}
	if s.CorruptMapOutput(2, 0) || s.CorruptMapOutput(1, 5) {
		t.Fatal("corrupting a nonexistent block reported success")
	}
	_, _, err := s.ReadReduce(1, 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of corrupt shuffle block: err = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Checkpoint || ce.Shuffle != 1 || ce.MapPart != 1 {
		t.Fatalf("corrupt error coordinates = %+v", ce)
	}
	// A recomputed map task overwrites the block and restores integrity.
	write(1)
	if _, _, err := s.ReadReduce(1, 0); err != nil {
		t.Fatalf("read after overwrite: %v", err)
	}
}

// TestBuildIndexSameAtEveryWidth builds each shape's index serially and then
// split over 2, 3 and more workers than partitions, and requires the same
// index every time — starts, rows, bytes, failed checks and fingerprints —
// and the
// same reads, including the first corrupt map output in map order. The shapes
// are bench/'s two (a join side of fat buckets; a wide shuffle of one-record
// buckets over more partitions than rows), one whose rows skip most
// partitions (empty ones at both ends and between any two ranges), one whose
// rows all land in one partition, and one with no rows at all.
func TestBuildIndexSameAtEveryWidth(t *testing.T) {
	splitSmallBuilds(t)
	for _, shape := range []struct {
		name                  string
		maps, reduces, perMap int
		route                 func(m, i int) int
	}{
		{"join", 6, 4, 900, nil},
		{"wide", 40, 600, 8, nil},
		{"sparse", 5, 11, 300, func(m, i int) int { return 2 + 3*((m+i)%3) }},
		{"skewed", 4, 6, 500, func(int, int) int { return 4 }},
		{"empty", 3, 5, 0, nil},
	} {
		t.Run(shape.name, func(t *testing.T) {
			for _, cow := range []bool{false, true} {
				prev := record.SetCowCheckForTesting(cow)
				defer record.SetCowCheckForTesting(prev)
				s := NewStore()
				if err := s.RegisterShuffle(1, shape.maps, shape.reduces); err != nil {
					t.Fatal(err)
				}
				p := partition.NewHash(shape.reduces)
				var scr record.Scratch
				for m := 0; m < shape.maps; m++ {
					rows := make([]record.Record, shape.perMap)
					for i := range rows {
						rows[i] = record.Pair(fmt.Sprintf("k%d-%d", m, i), m*shape.perMap+i)
					}
					var pb *record.PartitionedBatch
					if shape.route == nil {
						pb = partitionByHash(rows, p, &scr)
					} else {
						idx := make([]int32, len(rows))
						for i := range idx {
							idx[i] = int32(shape.route(m, i))
						}
						pb = record.PartitionRows(rows, idx, shape.reduces, &scr)
					}
					if err := s.WriteMapOutputBatch(1, m, pb); err != nil {
						t.Fatal(err)
					}
					scr.Reset()
				}
				// Two corrupt outputs: a partition both feed names the lower,
				// map order.
				if shape.perMap > 0 && (!s.CorruptMapOutput(1, 2) || !s.CorruptMapOutput(1, 1)) {
					t.Fatal("corrupting a committed output reported no block")
				}
				st := s.shuffles[1]
				var serial shuffleState
				var want []readResult
				for _, w := range buildWidths(shape.reduces) {
					st.dirty = true
					s.PrepareShuffleReads(w)
					got := readAll(s, 1, shape.reduces)
					if w == 1 {
						serial, want = *st, got
						continue
					}
					if !slices.Equal(st.at, serial.at) || !slices.Equal(st.bad, serial.bad) || !slices.Equal(st.rows, serial.rows) ||
						!slices.Equal(st.bytes, serial.bytes) || !slices.Equal(st.fps, serial.fps) {
						t.Fatalf("cow=%v: the index built at width %d differs from the serial one", cow, w)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("cow=%v: reads at width %d = %v, serial %v", cow, w, got, want)
					}
				}
				if shape.perMap == 0 {
					continue
				}
				for r, rr := range want {
					first := -1
					for _, m := range []int{2, 1} {
						for _, sp := range st.outputs[m].spans {
							if int(sp.Part) == r {
								first = m
							}
						}
					}
					got := -1
					var ce *CorruptError
					if errors.As(rr.err, &ce) && ce.Shuffle == 1 {
						got = ce.MapPart
					}
					if got != first || (first < 0 && rr.err != nil) {
						t.Fatalf("cow=%v: read %d = %v, want the first corrupt map output feeding it (-1: none), %d", cow, r, rr.err, first)
					}
				}
			}
		})
	}
}

// readResult is what one ReadReduce returned, view copied.
type readResult struct {
	rows  []record.Record
	bytes int64
	err   error
}

func readAll(s *Store, id, reduces int) []readResult {
	out := make([]readResult, reduces)
	for r := range out {
		rows, bytes, err := s.ReadReduce(id, r)
		out[r] = readResult{slices.Clone(rows), bytes, err}
	}
	return out
}

func TestCorruptCheckpointDetected(t *testing.T) {
	s := NewStore()
	s.WriteCheckpoint(3, 0, []record.Record{record.Pair("k", 1)}, 100)
	if !s.CorruptCheckpoint(3, 0) {
		t.Fatal("corrupt reported no block")
	}
	if s.CorruptCheckpoint(3, 9) {
		t.Fatal("corrupting a nonexistent checkpoint reported success")
	}
	_, _, err := s.ReadCheckpoint(3, 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || !ce.Checkpoint || ce.RDD != 3 || ce.Part != 0 {
		t.Fatalf("corrupt error coordinates = %+v", ce)
	}
	// HasCheckpoint still reports presence — detection happens on read.
	if !s.HasCheckpoint(3, 0) {
		t.Fatal("corrupt checkpoint vanished before read")
	}
	// Rewriting the checkpoint restores integrity.
	s.WriteCheckpoint(3, 0, []record.Record{record.Pair("k", 1)}, 100)
	if _, _, err := s.ReadCheckpoint(3, 0); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
}

func TestDropShuffle(t *testing.T) {
	s := NewStore()
	if err := s.RegisterShuffle(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMapOutputBatch(1, 0, mapOutputOf(map[int][]record.Record{0: {record.Pair("a", 1)}})); err != nil {
		t.Fatal(err)
	}
	// Losing a map output leaves the shuffle incomplete until it is rewritten.
	if !s.DropMapOutput(1, 0) || s.DropMapOutput(1, 0) {
		t.Fatal("DropMapOutput must report exactly the first drop")
	}
	if _, _, err := s.ReadReduce(1, 0); err == nil || s.ShuffleComplete(1) || hasMapOutput(s, 1, 0) {
		t.Fatal("shuffle still readable after losing its only map output")
	}
}

// TestCowCheckDetectsMapOutputMutation: a committed map output adopts the
// task's input rows, so a later write into that slice is picked up by the
// next index build. Without the debug mode a key rewritten to another length
// no longer fits its bucket's run of the output's key slab, and the read
// fails as a corrupt block (which a stage resubmit would silently heal); with
// STARK_CHECK_COW=1 the build panics naming the shuffle and map partition.
// Both hold at every build width.
func TestCowCheckDetectsMapOutputMutation(t *testing.T) {
	splitSmallBuilds(t)
	for _, cow := range []bool{false, true} {
		t.Run(fmt.Sprintf("cow=%v", cow), func(t *testing.T) {
			prev := record.SetCowCheckForTesting(cow)
			defer record.SetCowCheckForTesting(prev)
			for _, w := range buildWidths(2) {
				t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) {
					s := NewStore()
					if err := s.RegisterShuffle(4, 2, 2); err != nil {
						t.Fatal(err)
					}
					input := []record.Record{record.Pair("a", 1), record.Pair("b", 2), record.Pair("c", 3)}
					var scr record.Scratch
					for m := 0; m < 2; m++ {
						rows := input[m : m+2]
						if err := s.WriteMapOutputBatch(4, m, record.PartitionRows(rows, []int32{1, 0}, 2, &scr)); err != nil {
							t.Fatal(err)
						}
					}
					input[2].Key = "mutated" // map output 1's rows, after commit
					defer func() {
						msg := fmt.Sprint(recover())
						if cow != strings.Contains(msg, "shuffle 4 map output 1") {
							t.Fatalf("cow=%v: PrepareShuffleReads panic %q", cow, msg)
						}
					}()
					s.PrepareShuffleReads(w)
					_, _, err := s.ReadReduce(4, 0)
					var ce *CorruptError
					if !errors.As(err, &ce) || ce.Shuffle != 4 || ce.MapPart != 1 {
						t.Fatalf("read of a mutated output = %v, want CorruptError for map output 1", err)
					}
					if _, _, err := s.ReadReduce(4, 1); err != nil {
						t.Fatalf("read of the partitions the mutation missed: %v", err)
					}
				})
			}
		})
	}
}

// TestCowCheckDetectsReduceViewMutation: every reader of a reduce partition
// gets the store's own rows, so under STARK_CHECK_COW=1 a write into a view
// panics on the next read naming the shuffle and reduce partition, whatever
// width the index was built at.
func TestCowCheckDetectsReduceViewMutation(t *testing.T) {
	splitSmallBuilds(t)
	prev := record.SetCowCheckForTesting(true)
	defer record.SetCowCheckForTesting(prev)
	for _, w := range buildWidths(3) {
		t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) {
			s := NewStore()
			if err := s.RegisterShuffle(4, 2, 3); err != nil {
				t.Fatal(err)
			}
			for m := 0; m < 2; m++ {
				if err := s.WriteMapOutputBatch(4, m, mapOutputOf(map[int][]record.Record{
					0: {record.Pair("a", m)}, 1: {record.Pair("b", m)}, 2: {record.Pair("c", m)},
				})); err != nil {
					t.Fatal(err)
				}
			}
			s.PrepareShuffleReads(w)
			view, _, err := s.ReadReduce(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			view[1].Key = "mutated"
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "shuffle 4 reduce partition 1 mutated") {
					t.Fatalf("read after a write into its view: panic %q", msg)
				}
			}()
			_, _, _ = s.ReadReduce(4, 1)
		})
	}
}

// splitSmallBuilds lets the test's index builds split shuffles of any size
// (see minRangeRows).
func splitSmallBuilds(t *testing.T) {
	prev := minRangeRows
	minRangeRows = 1
	t.Cleanup(func() { minRangeRows = prev })
}

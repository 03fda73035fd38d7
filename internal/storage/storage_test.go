package storage

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"stark/internal/record"
)

// mapOutputOf builds the map output WriteMapOutputBatch takes from
// per-reduce row buckets: rows concatenated in ascending reduce order under
// the identity permutation, one span per bucket (empty ones included) with
// the bucket's raw size as Bytes and its real KeySum64 as Sum.
func mapOutputOf(buckets map[int][]record.Record) *record.PartitionedBatch {
	parts := make([]int, 0, len(buckets))
	for p := range buckets {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	var rows []record.Record
	spans := make([]record.Span, 0, len(parts))
	for _, p := range parts {
		lo := len(rows)
		rows = append(rows, buckets[p]...)
		spans = append(spans, record.Span{Part: int32(p), Lo: int32(lo), Hi: int32(len(rows)),
			Bytes: bucketBytes(buckets[p]), Sum: record.KeySum64(buckets[p])})
	}
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	return &record.PartitionedBatch{Rows: rows, Perm: perm, Spans: spans}
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
	if s.HasMapOutput(2, 0) || s.ShuffleComplete(2) || len(s.CommittedMapOutputs()) != 0 {
		t.Fatal("rejected write left state behind")
	}
	// Span position ranges are checked like span partitions, against the
	// permutation, and the permutation against the rows: a bad one would
	// otherwise commit and panic in the index build. Nothing rejected is
	// written into.
	ab := []record.Record{record.Pair("a", 1), record.Pair("b", 2)}
	for name, pb := range map[string]*record.PartitionedBatch{
		"negative Lo":        {Rows: ab, Perm: []int32{0, 1}, Spans: []record.Span{{Part: 0, Lo: -1, Hi: 1}}},
		"Lo > Hi":            {Rows: ab, Perm: []int32{0, 1}, Spans: []record.Span{{Part: 0, Lo: 2, Hi: 1}}},
		"Hi past Perm":       {Rows: ab, Perm: []int32{0, 1}, Spans: []record.Span{{Part: 0, Lo: 0, Hi: 3}}},
		"bad range, last":    {Rows: ab, Perm: []int32{0, 1}, Spans: []record.Span{{Part: 0, Lo: 0, Hi: 1}, {Part: 0, Lo: 1, Hi: 3}}},
		"empty past the end": {Rows: ab, Perm: []int32{0, 1}, Spans: []record.Span{{Part: 0, Lo: 3, Hi: 3}}},
		"short Perm":         {Rows: ab, Perm: []int32{1}, Spans: []record.Span{{Part: 0, Lo: 0, Hi: 1}}},
		"long Perm":          {Rows: ab, Perm: []int32{1, 0, 1}, Spans: []record.Span{{Part: 0, Lo: 0, Hi: 2}}},
		"nil Perm over rows": {Rows: ab, Spans: []record.Span{{Part: 0, Lo: 0, Hi: 0}}},
		"Perm over no rows":  {Perm: []int32{0}},
	} {
		then := record.PartitionedBatch{Rows: slices.Clone(pb.Rows), Perm: slices.Clone(pb.Perm), Spans: slices.Clone(pb.Spans)}
		if err := s.WriteMapOutputBatch(2, 0, pb); err == nil {
			t.Fatalf("output with %s accepted", name)
		}
		if s.HasMapOutput(2, 0) || s.ShuffleComplete(2) || len(s.CommittedMapOutputs()) != 0 {
			t.Fatalf("write rejected for %s left state behind", name)
		}
		if !slices.Equal(pb.Rows, then.Rows) || !slices.Equal(pb.Perm, then.Perm) || !slices.Equal(pb.Spans, then.Spans) {
			t.Fatalf("write rejected for %s wrote into its output", name)
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
		if s.HasMapOutput(2, m) || s.CorruptMapOutput(2, m) || s.DropMapOutput(2, m) {
			t.Fatalf("map partition %d outside [0,1) reported as present", m)
		}
	}
	if data, _, err := s.ReadReduce(2, 0); err != nil || len(data) != 1 {
		t.Fatalf("out-of-range probes disturbed the shuffle: %v, %v", data, err)
	}
	// A rejected overwrite is not an overwrite: the committed output stays,
	// and the index built by the read above stays current.
	if err := s.WriteMapOutputBatch(2, 0, &record.PartitionedBatch{Rows: ab, Perm: []int32{0, 1}, Spans: []record.Span{{Part: 0, Lo: 1, Hi: 0}}}); err == nil {
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
	s.DropCheckpoints(1)
	if s.TotalCheckpointBytes() != 0 || s.HasCheckpoint(1, 0) {
		t.Fatal("drop failed")
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
	if _, _, err := s.ReadReduce(1, 0); err == nil || s.ShuffleComplete(1) {
		t.Fatal("shuffle still readable after losing its only map output")
	}
	s.DropShuffle(1)
	if s.ShuffleComplete(1) || s.HasMapOutput(1, 0) {
		t.Fatal("shuffle survived drop")
	}
}

// TestCowCheckDetectsMapOutputMutation: a committed map output adopts the
// task's input rows, so a later write into that slice is picked up by the
// next index build. Without the debug mode the read fails as a corrupt block
// (which a stage resubmit would silently heal); with STARK_CHECK_COW=1 the
// build panics naming the shuffle and map partition.
func TestCowCheckDetectsMapOutputMutation(t *testing.T) {
	for _, cow := range []bool{false, true} {
		t.Run(fmt.Sprintf("cow=%v", cow), func(t *testing.T) {
			prev := record.SetCowCheckForTesting(cow)
			defer record.SetCowCheckForTesting(prev)
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
			s.PrepareShuffleReads()
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
}

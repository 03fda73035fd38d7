package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"stark/internal/record"
)

// shuffleModel is the naive reference the store is held to: committed map
// outputs as map[mapPart]map[reducePart][]Record, the bytes each bucket was
// written with, and which outputs have been corrupted since their last write.
// held is a window of views earlier reads returned, each with a private copy
// of what it held then: whatever the store does afterwards, a published view
// must not change (cached blocks hold them).
type shuffleModel struct {
	numMaps, numReduces int
	rows                map[int]map[int][]record.Record
	bytes               map[int]map[int]int64
	corrupt             map[int]bool
	held                []heldView
}

type heldView struct {
	where      string
	view, then []record.Record
}

// commit records pb as map partition m's output, replacing any earlier one.
func (md *shuffleModel) commit(m int, pb *record.PartitionedBatch) {
	rows, bytes := map[int][]record.Record{}, map[int]int64{}
	all := pb.Rows
	for _, sp := range pb.Spans {
		rows[sp.Part] = append(rows[sp.Part], all[sp.Lo:sp.Hi]...)
		bytes[sp.Part] += sp.Bytes
	}
	md.rows[m], md.bytes[m] = rows, bytes
	delete(md.corrupt, m)
}

// randomOutput routes fresh random rows through the production kernel and
// prices every span, returning the partitioned batch and the rows it was
// built from.
func randomOutput(rng *rand.Rand, numReduces int, serial *int) (*record.PartitionedBatch, []record.Record) {
	rows := make([]record.Record, rng.Intn(12))
	idx := make([]int32, len(rows))
	for i := range rows {
		*serial++
		rows[i] = record.Pair(fmt.Sprintf("k%d", rng.Intn(40)), *serial)
		idx[i] = int32(rng.Intn(numReduces))
	}
	var scr record.Scratch
	pb := record.PartitionRows(rows, idx, numReduces, &scr)
	for i := range pb.Spans {
		pb.Spans[i].Bytes = pb.Spans[i].RawBytes + int64(rng.Intn(100))
	}
	return pb, rows
}

// check compares every observable of the store with the model.
func (md *shuffleModel) check(t *testing.T, s *Store, id int, where string) {
	t.Helper()
	var missing []int
	var committed [][2]int
	for m := 0; m < md.numMaps; m++ {
		_, done := md.rows[m]
		if s.HasMapOutput(id, m) != done {
			t.Fatalf("%s: HasMapOutput(%d) = %v, model %v", where, m, !done, done)
		}
		if done {
			committed = append(committed, [2]int{id, m})
		} else {
			missing = append(missing, m)
		}
	}
	if got := s.MissingMapOutputs(id); !slices.Equal(got, missing) {
		t.Fatalf("%s: MissingMapOutputs = %v, model %v", where, got, missing)
	}
	if got := s.CommittedMapOutputs(); !reflect.DeepEqual(got, committed) {
		t.Fatalf("%s: CommittedMapOutputs = %v, model %v", where, got, committed)
	}
	complete := len(missing) == 0
	if s.ShuffleComplete(id) != complete {
		t.Fatalf("%s: ShuffleComplete = %v, model %v", where, !complete, complete)
	}
	for _, h := range md.held {
		if !slices.Equal(h.view, h.then) {
			t.Fatalf("%s: the view read at %s changed under its holder: %v, was %v", where, h.where, h.view, h.then)
		}
	}
	md.held = md.held[max(0, len(md.held)-64):]
	for r := 0; r < md.numReduces; r++ {
		data, bytes, err := s.ReadReduce(id, r)
		if !complete {
			if err == nil || errors.Is(err, ErrCorrupt) || data != nil {
				t.Fatalf("%s: read %d of an incomplete shuffle = %v, %v", where, r, data, err)
			}
			continue
		}
		// Map order, then input order; the lowest corrupt map partition that
		// feeds r is the one a failed read must name.
		var want []record.Record
		var wantBytes int64
		firstCorrupt := -1
		for m := 0; m < md.numMaps; m++ {
			if _, feeds := md.bytes[m][r]; feeds && md.corrupt[m] && firstCorrupt < 0 {
				firstCorrupt = m
			}
			want = append(want, md.rows[m][r]...)
			wantBytes += md.bytes[m][r]
		}
		if firstCorrupt >= 0 {
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Checkpoint || ce.Shuffle != id || ce.MapPart != firstCorrupt || data != nil {
				t.Fatalf("%s: read %d = %v, %v; want CorruptError for map %d", where, r, data, err, firstCorrupt)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: read %d: %v (corrupt outputs %v do not feed it)", where, r, err, md.corrupt)
		}
		if !slices.Equal(data, want) || bytes != wantBytes {
			t.Fatalf("%s: read %d = %v (%d bytes), model %v (%d bytes)", where, r, data, bytes, want, wantBytes)
		}
		if cap(data) != len(data) {
			t.Fatalf("%s: read %d has %d spare capacity: an append would reach the next partition", where, r, cap(data)-len(data))
		}
		// A clean partition read twice is the same memory, not two copies.
		again, _, err := s.ReadReduce(id, r)
		if err != nil || len(again) != len(data) || (len(data) > 0 && &again[0] != &data[0]) {
			t.Fatalf("%s: second read %d = %v, %v; want the first read's view", where, r, again, err)
		}
		md.held = append(md.held, heldView{where: where, view: data, then: slices.Clone(data)})
	}
}

// TestShuffleStoreMatchesNaiveModel drives random sequences of every shuffle
// operation against the store and a naive model, comparing all observables
// after every step. Reads go through the lazy index build or, when the
// sequence happened to call PrepareShuffleReads first, the prebuilt one;
// every view a read returned is held across the overwrites, drops, rewrites,
// corruptions and heals that follow and must keep its rows.
func TestShuffleStoreMatchesNaiveModel(t *testing.T) {
	const id = 7
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		md := &shuffleModel{
			numMaps: 2 + rng.Intn(5), numReduces: 1 + rng.Intn(6),
			rows: map[int]map[int][]record.Record{}, bytes: map[int]map[int]int64{}, corrupt: map[int]bool{},
		}
		s := NewStore()
		if err := s.RegisterShuffle(id, md.numMaps, md.numReduces); err != nil {
			t.Fatal(err)
		}
		write := func(m int, pb *record.PartitionedBatch) {
			t.Helper()
			if err := s.WriteMapOutputBatch(id, m, pb); err != nil {
				t.Fatal(err)
			}
			md.commit(m, pb)
		}
		serial := 0
		for step := 0; step < 300; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			m := rng.Intn(md.numMaps)
			switch op := rng.Intn(20); {
			case op < 9: // write, or overwrite with different rows
				pb, _ := randomOutput(rng, md.numReduces, &serial)
				write(m, pb)
			case op < 11: // heal a corrupt output by overwriting it
				for c := range md.numMaps {
					if md.corrupt[c] {
						pb, _ := randomOutput(rng, md.numReduces, &serial)
						write(c, pb)
						break
					}
				}
			case op < 13: // one batch committed under several map partitions, one of them then corrupted
				pb, rows := randomOutput(rng, md.numReduces, &serial)
				spans, input := slices.Clone(pb.Spans), slices.Clone(rows)
				for c := range md.numMaps {
					if c == m || rng.Intn(2) == 0 {
						write(c, pb)
					}
				}
				if !s.CorruptMapOutput(id, m) {
					t.Fatalf("%s: corrupting a committed output reported no block", where)
				}
				md.corrupt[m] = true
				if !slices.Equal(pb.Spans, spans) || !slices.Equal(rows, input) {
					t.Fatalf("%s: the store wrote into the caller's spans or rows", where)
				}
			case op < 16:
				_, done := md.rows[m]
				if s.DropMapOutput(id, m) != done {
					t.Fatalf("%s: DropMapOutput(%d) = %v, model %v", where, m, !done, done)
				}
				delete(md.rows, m)
				delete(md.bytes, m)
				delete(md.corrupt, m)
			case op < 19:
				// A second flip of the same checksums would restore them;
				// bit rot is only ever injected into an intact output here.
				if md.corrupt[m] {
					continue
				}
				_, done := md.rows[m]
				if s.CorruptMapOutput(id, m) != done {
					t.Fatalf("%s: CorruptMapOutput(%d) = %v, model %v", where, m, !done, done)
				}
				if done {
					md.corrupt[m] = true
				}
			default:
				s.PrepareShuffleReads()
			}
			md.check(t, s, id, where)
		}
		// Healed and indexed, reading allocates nothing.
		for m := 0; m < md.numMaps; m++ {
			pb, _ := randomOutput(rng, md.numReduces, &serial)
			write(m, pb)
		}
		s.PrepareShuffleReads()
		if allocs := testing.AllocsPerRun(10, func() {
			for r := 0; r < md.numReduces; r++ {
				if _, _, err := s.ReadReduce(id, r); err != nil {
					t.Fatal(err)
				}
			}
		}); allocs != 0 {
			t.Fatalf("seed %d: reading a built index: %.0f allocs, want 0", seed, allocs)
		}
		md.check(t, s, id, fmt.Sprintf("seed %d healed", seed))
	}
}

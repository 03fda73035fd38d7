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
// must not change (cached blocks hold them). given is a window of the batches
// handed to the store, each with a private copy of its rows, permutation,
// keys and spans: the store adopts them and must never write into them.
type shuffleModel struct {
	numMaps, numReduces int
	rows                map[int]map[int][]record.Record
	bytes               map[int]map[int]int64
	corrupt             map[int]bool
	held                []heldView
	given               []givenBatch
}

type heldView struct {
	where      string
	view, then []record.Record
}

type givenBatch struct {
	where string
	pb    *record.PartitionedBatch
	then  record.PartitionedBatch
}

// commit records pb as map partition m's output, replacing any earlier one.
// Buckets are read the way the store gathers them: through the permutation.
func (md *shuffleModel) commit(m int, pb *record.PartitionedBatch, where string) {
	rows, bytes := map[int][]record.Record{}, map[int]int64{}
	for _, sp := range pb.Spans {
		p := int(sp.Part)
		for _, i := range pb.Perm[sp.Lo:sp.Hi] {
			rows[p] = append(rows[p], pb.Rows[i])
		}
		bytes[p] += sp.Bytes
	}
	md.rows[m], md.bytes[m] = rows, bytes
	delete(md.corrupt, m)
	md.given = append(md.given, givenBatch{where: where, pb: pb, then: record.PartitionedBatch{
		Rows: slices.Clone(pb.Rows), Perm: slices.Clone(pb.Perm), Keys: pb.Keys, Spans: slices.Clone(pb.Spans)}})
}

// randomOutput routes fresh random rows through the production kernel and
// prices every span, returning the partitioned batch and the rows it was
// built from. One time in three the rows are a sub-slice of a larger array
// whose other rows no output routes. Some keys are empty and some longer
// than the checksum's 8-byte word.
func randomOutput(rng *rand.Rand, numReduces int, serial *int) (*record.PartitionedBatch, []record.Record) {
	n, lo, extra := rng.Intn(12), 0, 0
	if rng.Intn(3) == 0 {
		lo, extra = rng.Intn(3), rng.Intn(3)
	}
	backing := make([]record.Record, lo+n+extra)
	for i := range backing {
		*serial++
		key := fmt.Sprintf("k%d", rng.Intn(40))
		switch rng.Intn(8) {
		case 0:
			key = ""
		case 1:
			key = fmt.Sprintf("long-key-%d", rng.Intn(1<<20))
		}
		backing[i] = record.Pair(key, *serial)
	}
	rows := backing[lo : lo+n]
	return routeOutput(rng, rows, numReduces), rows
}

// routeOutput routes rows at random through the production kernel and prices
// every span above its raw bytes.
func routeOutput(rng *rand.Rand, rows []record.Record, numReduces int) *record.PartitionedBatch {
	idx := make([]int32, len(rows))
	for i := range idx {
		idx[i] = int32(rng.Intn(numReduces))
	}
	var scr record.Scratch
	pb := record.PartitionRows(rows, idx, numReduces, &scr)
	for i := range pb.Spans {
		pb.Spans[i].Bytes += int64(rng.Intn(100))
	}
	return pb
}

// check compares every observable of the store with the model.
func (md *shuffleModel) check(t *testing.T, s *Store, id int, where string) {
	t.Helper()
	var missing []int
	var committed [][2]int
	for m := 0; m < md.numMaps; m++ {
		_, done := md.rows[m]
		if hasMapOutput(s, id, m) != done {
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
	// Five rounds of reads a check (see below) fill this window.
	md.held = md.held[max(0, len(md.held)-320):]
	for _, g := range md.given {
		if !slices.Equal(g.pb.Rows, g.then.Rows) || !slices.Equal(g.pb.Perm, g.then.Perm) || g.pb.Keys != g.then.Keys || !slices.Equal(g.pb.Spans, g.then.Spans) {
			t.Fatalf("%s: the store wrote into the rows, permutation, keys or spans written at %s", where, g.where)
		}
	}
	md.given = md.given[max(0, len(md.given)-64):]
	if !complete {
		for r := 0; r < md.numReduces; r++ {
			if data, _, err := s.ReadReduce(id, r); err == nil || errors.Is(err, ErrCorrupt) || data != nil {
				t.Fatalf("%s: read %d of an incomplete shuffle = %v, %v", where, r, data, err)
			}
		}
		return
	}
	// Reads go through whatever index the sequence left (lazily built, or
	// prebuilt at the width the last check ended on); then the index is
	// rebuilt at every width, which must give the same index and the same
	// reads, the model's.
	md.checkReads(t, s, id, where)
	st := s.shuffles[id]
	at, bad, rows, bytes, fps := st.at, st.bad, st.rows, st.bytes, st.fps
	for _, w := range buildWidths(md.numReduces) {
		st.dirty = true
		s.PrepareShuffleReads(w)
		if !slices.Equal(st.at, at) || !slices.Equal(st.bad, bad) || !slices.Equal(st.rows, rows) ||
			!slices.Equal(st.bytes, bytes) || !slices.Equal(st.fps, fps) {
			t.Fatalf("%s: the index built at width %d differs from the one read before", where, w)
		}
		md.checkReads(t, s, id, fmt.Sprintf("%s width %d", where, w))
	}
}

// buildWidths are the widths every complete shuffle's index is rebuilt at:
// serial, two and three ranges, and more workers than partitions.
func buildWidths(numReduces int) []int { return []int{1, 2, 3, numReduces + 2} }

// checkReads reads every reduce partition of a complete shuffle and compares
// it with the model.
func (md *shuffleModel) checkReads(t *testing.T, s *Store, id int, where string) {
	t.Helper()
	for r := 0; r < md.numReduces; r++ {
		data, bytes, err := s.ReadReduce(id, r)
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
// every complete shuffle's index is then rebuilt at every width in
// buildWidths and read again. Every view a read returned is held across the
// overwrites, drops, rewrites, corruptions and heals that follow and must
// keep its rows, and every batch the store adopted — rows (some a sub-slice
// of a larger array, some shared by two routings, some keys empty or longer
// than a word), permutation, keys and spans — must keep its contents.
func TestShuffleStoreMatchesNaiveModel(t *testing.T) {
	splitSmallBuilds(t)
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
		where := ""
		write := func(m int, pb *record.PartitionedBatch) {
			t.Helper()
			if err := s.WriteMapOutputBatch(id, m, pb); err != nil {
				t.Fatal(err)
			}
			md.commit(m, pb, where)
		}
		serial := 0
		for step := 0; step < 300; step++ {
			where = fmt.Sprintf("seed %d step %d", seed, step)
			m := rng.Intn(md.numMaps)
			switch op := rng.Intn(22); {
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
				pb, _ := randomOutput(rng, md.numReduces, &serial)
				for c := range md.numMaps {
					if c == m || rng.Intn(2) == 0 {
						write(c, pb)
					}
				}
				if !s.CorruptMapOutput(id, m) {
					t.Fatalf("%s: corrupting a committed output reported no block", where)
				}
				md.corrupt[m] = true
			case op < 15: // two routings of one row slice under two map partitions
				pb, rows := randomOutput(rng, md.numReduces, &serial)
				write(m, pb)
				write(rng.Intn(md.numMaps), routeOutput(rng, rows, md.numReduces))
			case op < 18:
				_, done := md.rows[m]
				if s.DropMapOutput(id, m) != done {
					t.Fatalf("%s: DropMapOutput(%d) = %v, model %v", where, m, !done, done)
				}
				delete(md.rows, m)
				delete(md.bytes, m)
				delete(md.corrupt, m)
			case op < 21:
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
				s.PrepareShuffleReads(1)
			}
			md.check(t, s, id, where)
		}
		// Healed and indexed, reading allocates nothing.
		for m := 0; m < md.numMaps; m++ {
			pb, _ := randomOutput(rng, md.numReduces, &serial)
			write(m, pb)
		}
		s.PrepareShuffleReads(1)
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

package journal

import (
	"bytes"
	"testing"
)

func sample() []Record {
	return []Record{
		{Kind: KindNamespace, A: 8, S: "users"},
		{Kind: KindGroupSplit, A: 1, B: 2, C: 3, D: 4, S: "users"},
		{Kind: KindGroupMerge, A: 2, B: 3, C: 1, S: "users"},
		{Kind: KindMapOutput, A: 7, B: 11, C: 12, D: 6},
		{Kind: KindCheckpoint, A: 42},
		{Kind: KindJobSubmit, A: 9},
		{Kind: KindJobComplete, A: 9},
		{Kind: KindBlacklist, A: 3, B: 1_500_000_000},
		{Kind: KindUnblacklist, A: 3},
		{Kind: KindNamespace, A: 5, B: 77, S: "clicks"},
		{Kind: KindGroupMerge, A: 1, S: "clicks"},
		{Kind: KindMapOutput, A: -1, B: -9223372036854775808, C: 9223372036854775807},
		{Kind: KindNamespace, S: ""},
	}
}

func TestRoundTrip(t *testing.T) {
	var l Log
	want := sample()
	for _, r := range want {
		l.Append(r)
	}
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
	got, torn := Replay(l.Bytes())
	if torn != 0 {
		t.Fatalf("torn = %d on intact log", torn)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTornTail tears every possible suffix length off a multi-record log
// and checks that replay recovers exactly the records whose frames are
// fully intact, reporting the remainder as torn bytes.
func TestTornTail(t *testing.T) {
	recs := sample()
	var full Log
	var frameEnds []int
	for _, r := range recs {
		full.Append(r)
		frameEnds = append(frameEnds, full.Size())
	}
	total := full.Size()
	for tear := 0; tear <= total; tear++ {
		var l Log
		for _, r := range recs {
			l.Append(r)
		}
		l.TearTail(tear)
		got, torn := l.ReplayLog()
		// Count how many complete frames survive the tear.
		intact := 0
		for _, end := range frameEnds {
			if end <= total-tear {
				intact++
			}
		}
		if len(got) != intact {
			t.Fatalf("tear %d: replayed %d records, want %d", tear, len(got), intact)
		}
		for i := 0; i < intact; i++ {
			if got[i] != recs[i] {
				t.Fatalf("tear %d: record %d mismatch", tear, i)
			}
		}
		if torn != total-tear-frameEnds2(frameEnds, intact) {
			t.Fatalf("tear %d: torn = %d, want %d", tear, torn, total-tear-frameEnds2(frameEnds, intact))
		}
		// After ReplayLog the stream must be fully parseable again.
		again, torn2 := Replay(l.Bytes())
		if torn2 != 0 || len(again) != intact {
			t.Fatalf("tear %d: post-truncation replay torn=%d records=%d", tear, torn2, len(again))
		}
	}
}

func frameEnds2(ends []int, intact int) int {
	if intact == 0 {
		return 0
	}
	return ends[intact-1]
}

// TestCorruptTail flips a byte in the final frame's checksum region and
// verifies only that frame is lost.
func TestCorruptTail(t *testing.T) {
	var l Log
	recs := sample()
	for _, r := range recs {
		l.Append(r)
	}
	b := l.Bytes()
	b[len(b)-1] ^= 0xff
	got, torn := Replay(b)
	if len(got) != len(recs)-1 {
		t.Fatalf("replayed %d records after corrupt tail, want %d", len(got), len(recs)-1)
	}
	if torn == 0 {
		t.Fatal("corrupt tail reported zero torn bytes")
	}
}

func TestResetAndTearAll(t *testing.T) {
	var l Log
	l.Append(Record{Kind: KindCheckpoint, A: 1})
	l.TearTail(l.Size() + 100)
	if got, torn := Replay(l.Bytes()); len(got) != 0 || torn != 0 {
		t.Fatalf("full tear: records=%d torn=%d", len(got), torn)
	}
	l.Append(Record{Kind: KindCheckpoint, A: 2})
	l.Reset()
	if l.Size() != 0 || l.Len() != 0 {
		t.Fatal("Reset left residue")
	}
}

// FuzzReplay feeds arbitrary byte streams to Replay: it must never panic,
// report torn bytes within bounds, and — after truncating the reported
// tail — the surviving prefix must replay identically and cleanly
// (idempotent recovery).
func FuzzReplay(f *testing.F) {
	var seedLog Log
	for _, r := range sample() {
		seedLog.Append(r)
	}
	f.Add(seedLog.Bytes())
	f.Add(seedLog.Bytes()[:seedLog.Size()-3])
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, torn := Replay(data)
		if torn < 0 || torn > len(data) {
			t.Fatalf("torn = %d out of range [0,%d]", torn, len(data))
		}
		prefix := data[:len(data)-torn]
		again, torn2 := Replay(prefix)
		if torn2 != 0 {
			t.Fatalf("prefix still torn after truncation: %d", torn2)
		}
		if len(again) != len(recs) {
			t.Fatalf("prefix replay gave %d records, want %d", len(again), len(recs))
		}
		// Re-encoding the recovered records must replay to the same list.
		var l Log
		for _, r := range recs {
			l.Append(r)
		}
		if !bytes.Equal(l.Bytes(), prefix) {
			// Not required byte-identical (encoding is canonical, so it is
			// unless the input used a non-canonical varint); records must
			// still match.
			round, torn3 := Replay(l.Bytes())
			if torn3 != 0 || len(round) != len(recs) {
				t.Fatalf("re-encoded log does not replay: torn=%d n=%d", torn3, len(round))
			}
			for i := range recs {
				if round[i] != recs[i] {
					t.Fatalf("re-encoded record %d mismatch", i)
				}
			}
		}
	})
}

// sinkCloser is an in-memory durable sink with fault and accounting knobs.
type sinkCloser struct {
	bytes.Buffer
	closes  int
	failAll bool
}

func (s *sinkCloser) Write(p []byte) (int, error) {
	if s.failAll {
		return 0, errFull
	}
	return s.Buffer.Write(p)
}

func (s *sinkCloser) Close() error {
	s.closes++
	return nil
}

var errFull = errorString("sink full")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestSinkMirrorsFrames: every Append is mirrored to the sink byte-for-byte,
// so the durable copy replays exactly like the in-memory log.
func TestSinkMirrorsFrames(t *testing.T) {
	var l Log
	sink := &sinkCloser{}
	l.SetSink(sink)
	for _, r := range sample() {
		l.Append(r)
	}
	if !bytes.Equal(sink.Bytes(), l.Bytes()) {
		t.Fatalf("sink copy (%d bytes) differs from log buffer (%d bytes)",
			sink.Len(), l.Size())
	}
	var replay Log
	replay.buf = append([]byte(nil), sink.Bytes()...)
	recs, torn := replay.ReplayLog()
	if torn != 0 || len(recs) != len(sample()) {
		t.Fatalf("sink copy replays %d records (torn=%d), want %d", len(recs), torn, len(sample()))
	}
}

// TestCloseIdempotentAndLateAppends: Close closes the sink exactly once;
// repeat Closes return the same error; appends after Close still land in
// the in-memory log (crash simulation reads it) but never touch the closed
// sink.
func TestCloseIdempotentAndLateAppends(t *testing.T) {
	var l Log
	sink := &sinkCloser{}
	l.SetSink(sink)
	l.Append(Record{Kind: KindJobSubmit, A: 1})
	if err := l.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if sink.closes != 1 {
		t.Fatalf("sink closed %d times, want 1", sink.closes)
	}
	before := sink.Len()
	l.Append(Record{Kind: KindJobComplete, A: 1})
	if sink.Len() != before {
		t.Fatal("append after Close reached the closed sink")
	}
	if l.Len() != 2 {
		t.Fatalf("in-memory log lost the post-close append (len=%d)", l.Len())
	}
}

// TestSinkWriteErrorLatched: the first sink write error stops further
// mirroring and surfaces, wrapped, from Close — idempotently.
func TestSinkWriteErrorLatched(t *testing.T) {
	var l Log
	sink := &sinkCloser{failAll: true}
	l.SetSink(sink)
	l.Append(Record{Kind: KindJobSubmit, A: 1})
	l.Append(Record{Kind: KindJobSubmit, A: 2})
	err := l.Close()
	if err == nil {
		t.Fatal("Close swallowed the sink write error")
	}
	if again := l.Close(); again != err {
		t.Fatalf("repeat Close returned %v, want latched %v", again, err)
	}
	if l.Len() != 2 {
		t.Fatalf("in-memory log dropped records on sink failure (len=%d)", l.Len())
	}
}

// TestCloseWithoutSink: a sink-less log (the default in-memory setup every
// engine test uses) closes cleanly any number of times.
func TestCloseWithoutSink(t *testing.T) {
	var l Log
	l.Append(Record{Kind: KindJobSubmit, A: 1})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("repeat Close: %v", err)
	}
}

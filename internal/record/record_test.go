package record

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestSizeOfBasics(t *testing.T) {
	cases := []struct {
		v    any
		want int64
	}{
		{nil, 0},
		{true, 1},
		{int64(7), 8},
		{3.14, 8},
		{"abc", 19},
		{[]byte{1, 2, 3}, 27},
		{[]int64{1, 2}, 40},
		{[]string{"a"}, 41},
	}
	for _, c := range cases {
		if got := SizeOf(c.v); got != c.want {
			t.Errorf("SizeOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestSizeOfComposites pins the bytes a CoGrouped and a Joined are priced at
// (the formula every v-metric was measured with, not their String form) and
// that pricing them allocates nothing.
func TestSizeOfComposites(t *testing.T) {
	var cg CoGrouped = &CoGroupedSides{Groups: [][]any{{int64(1)}, {"x"}, nil}}
	// Header, then per side: a slice header plus 8 + SizeOf per element.
	if got, want := SizeOf(cg), int64(24+(24+8+8)+(24+8+17)+24); got != want {
		t.Fatalf("SizeOf(CoGrouped) = %d, want %d", got, want)
	}
	var j Joined = &JoinedPair{Left: "a", Right: int64(1)}
	if got := SizeOf(j); got != 16+17+8 {
		t.Fatalf("SizeOf(Joined) = %d", got)
	}
	if got := SizeOf(struct{ X int }{1}); got != 64 {
		t.Fatalf("unknown type fallback = %d", got)
	}
	for name, v := range map[string]any{"CoGrouped": cg, "Joined": j} {
		if allocs := testing.AllocsPerRun(100, func() { SizeOf(v) }); allocs != 0 {
			t.Errorf("SizeOf(%s): %.0f allocs/op, want 0", name, allocs)
		}
	}
}

// TestCompositesPrintAsStructs pins the %v text of the pointer-shaped values
// to what the struct values they replaced printed, which transcripts and
// goldens compare against.
func TestCompositesPrintAsStructs(t *testing.T) {
	rs := []Record{
		Pair("j", &JoinedPair{Left: "l", Right: int64(2)}),
		Pair("c", &CoGroupedSides{Groups: [][]any{{"a", "b"}, nil}}),
	}
	if got, want := fmt.Sprintf("%v", rs), "[{j {l 2}} {c {[[a b] []]}}]"; got != want {
		t.Fatalf("%%v = %q, want %q", got, want)
	}
}

func TestSizeMonotoneInStringLength(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > len(b) {
			a, b = b, a
		}
		return SizeOf(a) <= SizeOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeOfSliceIsSumPlusOverhead(t *testing.T) {
	f := func(keys []string) bool {
		rs := make([]Record, len(keys))
		var sum int64 = sliceOverhead
		for i, k := range keys {
			rs[i] = Pair(k, int64(i))
			sum += SizeOfRecord(rs[i])
		}
		return SizeOfSlice(rs) == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupByKey(t *testing.T) {
	rs := []Record{Pair("b", 1), Pair("a", 2), Pair("b", 3)}
	m, keys := GroupByKey(rs)
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
	if len(m["b"]) != 2 || m["b"][0] != 1 || m["b"][1] != 3 {
		t.Fatalf("m[b] = %v", m["b"])
	}
}

func TestAsInt64(t *testing.T) {
	for _, v := range []any{int(5), int32(5), int64(5), uint32(5), uint64(5), float64(5)} {
		got, ok := AsInt64(v)
		if !ok || got != 5 {
			t.Errorf("AsInt64(%T) = %d, %v", v, got, ok)
		}
	}
	if _, ok := AsInt64("5"); ok {
		t.Error("AsInt64(string) succeeded")
	}
}

func TestCloneIndependent(t *testing.T) {
	rs := []Record{Pair("a", 1)}
	c := Clone(rs)
	c[0].Key = "z"
	if rs[0].Key != "a" {
		t.Fatal("Clone aliases input")
	}
}

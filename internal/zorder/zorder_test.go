package zorder

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(x, y uint32) bool {
		gx, gy := Decode(Encode(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeKnownValues(t *testing.T) {
	cases := []struct {
		x, y uint32
		z    uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{2, 0, 4},
		{3, 3, 15},
		{0xffffffff, 0xffffffff, 0xffffffffffffffff},
	}
	for _, c := range cases {
		if got := Encode(c.x, c.y); got != c.z {
			t.Errorf("Encode(%d,%d) = %d, want %d", c.x, c.y, got, c.z)
		}
	}
}

func TestZOrderLocality(t *testing.T) {
	// All four cells of an aligned 2x2 block must be contiguous in Z-order.
	for _, base := range [][2]uint32{{0, 0}, {2, 2}, {4, 0}, {6, 6}} {
		codes := []uint64{
			Encode(base[0], base[1]),
			Encode(base[0]+1, base[1]),
			Encode(base[0], base[1]+1),
			Encode(base[0]+1, base[1]+1),
		}
		lo, hi := codes[0], codes[0]
		for _, c := range codes {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if hi-lo != 3 {
			t.Errorf("block at %v spans [%d,%d]", base, lo, hi)
		}
	}
}

func TestGridEncode(t *testing.T) {
	g := NewGrid(4)
	if g.Side() != 4 || g.Cells() != 16 {
		t.Fatalf("side=%d cells=%d", g.Side(), g.Cells())
	}
	if z := g.EncodePoint(0.0, 0.0); z != Encode(0, 0) {
		t.Fatalf("EncodePoint(0,0) = %d", z)
	}
	if z := g.EncodePoint(0.99, 0.99); z != Encode(3, 3) {
		t.Fatalf("EncodePoint(.99,.99) = %d", z)
	}
	// Clamping.
	if z := g.EncodePoint(-1, 2); z != Encode(0, 3) {
		t.Fatalf("EncodePoint(-1,2) = %d", z)
	}
}

func TestGridValidation(t *testing.T) {
	for _, n := range []uint32{0, 3, 1 << 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid(%d) did not panic", n)
				}
			}()
			NewGrid(n)
		}()
	}
}

func TestKeyPreservesOrder(t *testing.T) {
	f := func(a, b uint64) bool {
		if a < b {
			return Key(a) < Key(b)
		}
		return Key(a) >= Key(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

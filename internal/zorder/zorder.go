// Package zorder implements Z-order (Morton) encoding, the space-filling
// curve the paper uses (citing Pyro [23]) to map two-dimensional taxi
// pick-up/drop-off coordinates onto one-dimensional, range-partitionable
// keys. Nearby cells in the plane share long common prefixes in Z-order, so
// a range partitioner over encoded keys approximates spatial partitioning —
// which is exactly what makes hotspot drift translate into partition-size
// skew in the evaluation.
package zorder

import "fmt"

// Encode interleaves the bits of x and y (x in the even positions) to form
// the Morton code of the cell (x, y).
func Encode(x, y uint32) uint64 {
	return spread(x) | spread(y)<<1
}

// Decode inverts Encode.
//
//starklint:ignore unreachable workload tests
func Decode(z uint64) (x, y uint32) {
	return compact(z), compact(z >> 1)
}

// spread inserts a zero bit between each of the 32 input bits.
func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compact removes the zero bit between each of 32 bits, inverting spread.
func compact(z uint64) uint32 {
	x := z & 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return uint32(x)
}

// Grid maps continuous coordinates in [0,1)x[0,1) onto an n x n cell grid
// and Z-encodes the cell. n must be a power of two no larger than 1<<16.
type Grid struct {
	n uint32
}

// NewGrid returns a grid with n cells per side. It panics if n is not a
// power of two in [1, 65536]; grid resolution is a static configuration
// error, not a runtime condition.
func NewGrid(n uint32) Grid {
	if n == 0 || n > 1<<16 || n&(n-1) != 0 {
		panic(fmt.Sprintf("zorder: grid side %d must be a power of two in [1, 65536]", n))
	}
	return Grid{n: n}
}

// Side reports the number of cells per side.
func (g Grid) Side() uint32 { return g.n }

// Cells reports the total number of cells.
func (g Grid) Cells() uint64 { return uint64(g.n) * uint64(g.n) }

// EncodePoint clamps (u, v) into [0,1) and returns the Z-code of the
// containing cell.
func (g Grid) EncodePoint(u, v float64) uint64 {
	return Encode(g.clamp(u), g.clamp(v))
}

func (g Grid) clamp(u float64) uint32 {
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		u = 0.999999999
	}
	c := uint32(u * float64(g.n))
	if c >= g.n {
		c = g.n - 1
	}
	return c
}

// Key renders a Z-code as a fixed-width hex string so lexicographic string
// order equals numeric Z-order; the engine's range partitioners operate on
// string keys.
func Key(z uint64) string {
	return fmt.Sprintf("%016x", z)
}

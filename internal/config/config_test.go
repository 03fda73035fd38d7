package config

import (
	"testing"
	"testing/quick"
	"time"
)

func TestGCFactorShape(t *testing.T) {
	g := Default().GC
	if f := g.Factor(0); f != g.Base {
		t.Errorf("Factor(0) = %v, want %v", f, g.Base)
	}
	if f := g.Factor(g.Knee); f != g.Base {
		t.Errorf("Factor(knee) = %v, want %v", f, g.Base)
	}
	if f := g.Factor(1); f != g.Max {
		t.Errorf("Factor(1) = %v, want %v", f, g.Max)
	}
	if f := g.Factor(2); f != g.Max {
		t.Errorf("Factor(2) = %v, want clamp to %v", f, g.Max)
	}
	if f := g.Factor(-1); f != g.Base {
		t.Errorf("Factor(-1) = %v, want %v", f, g.Base)
	}
}

func TestGCFactorMonotone(t *testing.T) {
	g := Default().GC
	f := func(a, b float64) bool {
		if a < 0 || b < 0 || a > 1 || b > 1 {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return g.Factor(a) <= g.Factor(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeTime(t *testing.T) {
	c := Default()
	if d := c.ComputeTime(computeBandwidth, 1.0); d != time.Second {
		t.Errorf("ComputeTime = %v, want 1s", d)
	}
	if d := c.ComputeTime(computeBandwidth, 2.0); d != 2*time.Second {
		t.Errorf("ComputeTime(x2) = %v, want 2s", d)
	}
	if d := c.ComputeTime(0, 1); d != 0 {
		t.Errorf("ComputeTime(0) = %v", d)
	}
}

func TestIOTimesIncludeLatency(t *testing.T) {
	c := Default()
	if d := c.DiskReadTime(1); d <= diskLatency {
		t.Errorf("DiskReadTime(1) = %v", d)
	}
	if d := c.NetTime(1); d <= netLatency {
		t.Errorf("NetTime(1) = %v", d)
	}
	if c.DiskReadTime(0) != 0 || c.NetTime(0) != 0 {
		t.Error("zero-byte IO must be free")
	}
	if c.DiskWriteTime(1<<20) != c.DiskReadTime(1<<20) {
		t.Error("write and read time differ in this model")
	}
}

func TestScaleBytes(t *testing.T) {
	c := Default()
	if c.ScaleBytes(100) != 100 {
		t.Error("SizeScale 1.0 must be identity")
	}
	c.SizeScale = 800
	if got := c.ScaleBytes(1 << 20); got != 800<<20 {
		t.Errorf("ScaleBytes = %d", got)
	}
}

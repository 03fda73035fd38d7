// Package workload synthesizes the three traces the paper evaluates with,
// since the originals are not redistributable:
//
//   - Wikipedia request logs (Jan 2008): hourly log datasets with a diurnal
//     volume curve (peak ≈ 2× nadir, per the Proteus analysis the paper
//     cites) and Zipf-distributed URLs.
//   - NYC taxi pick-up/drop-off events (2010–2013): spatio-temporal events
//     over a Manhattan-like unit square whose hotspot mix drifts with the
//     time of day and with holidays, mimicking Fig. 6; coordinates are
//     Z-order encoded into range-partitionable string keys.
//   - Twitter statuses: synthetic texts over a keyword pool, merged onto
//     the taxi trace exactly as the paper does ("appending a tweet after
//     every taxi pick-up/drop-off event log").
//
// All generators are deterministic given their seeds.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"stark/internal/record"
	"stark/internal/zorder"
)

// WikipediaConfig parameterizes the hourly log generator.
type WikipediaConfig struct {
	Seed int64
	// URLs is the distinct URL count.
	URLs int
	// ZipfS > 1 is the Zipf exponent of URL popularity.
	ZipfS float64
	// RequestsPerHour is the average hourly request count; the diurnal
	// curve modulates it.
	RequestsPerHour int
	// PeakToNadir is the ratio between the busiest and quietest hours.
	PeakToNadir float64
}

// DefaultWikipedia returns a modest, fast-to-generate configuration.
func DefaultWikipedia() WikipediaConfig {
	return WikipediaConfig{
		Seed:            7,
		URLs:            5000,
		ZipfS:           1.2,
		RequestsPerHour: 20000,
		PeakToNadir:     2.0,
	}
}

// DiurnalFactor is the relative traffic volume at the given hour-of-day,
// a smooth curve with its peak at 20:00 and nadir near 08:00, normalized so
// the peak/nadir ratio equals PeakToNadir.
func (c WikipediaConfig) DiurnalFactor(hour int) float64 {
	h := float64(hour % 24)
	// Cosine with minimum at 8h, maximum at 20h.
	phase := (h - 20) / 24 * 2 * math.Pi
	x := (math.Cos(phase) + 1) / 2 // 1 at peak hour, 0 at nadir
	r := c.PeakToNadir
	if r < 1 {
		r = 1
	}
	lo := 2 / (r + 1)
	hi := 2 * r / (r + 1)
	return lo + (hi-lo)*x
}

// Hour generates one hourly log dataset: key = requested URL, value = a log
// line. The hour index selects both volume and RNG stream.
func (c WikipediaConfig) Hour(hour int) []record.Record {
	rng := rand.New(rand.NewSource(c.Seed + int64(hour)*1_000_003))
	zipf := rand.NewZipf(rng, c.ZipfS, 1, uint64(c.URLs-1))
	n := int(float64(c.RequestsPerHour) * c.DiurnalFactor(hour))
	out := make([]record.Record, 0, n)
	for i := 0; i < n; i++ {
		u := zipf.Uint64()
		url := fmt.Sprintf("/wiki/article-%05d", u)
		line := fmt.Sprintf("2008-01-%02dT%02d:%02d:%02d GET %s 200",
			1+hour/24, hour%24, rng.Intn(60), rng.Intn(60), url)
		out = append(out, record.Pair(url, line))
	}
	return out
}

// Hotspot is one Gaussian bump of event density on the unit square.
type Hotspot struct {
	CX, CY float64 // center
	Sigma  float64 // spread
	Weight float64 // relative share of events
}

// TaxiConfig parameterizes the spatio-temporal event generator.
type TaxiConfig struct {
	Seed int64
	Grid zorder.Grid
	// EventsPerStep is the average event count per timestep.
	EventsPerStep int
	// PeakToNadir scales volume across the day like WikipediaConfig.
	PeakToNadir float64
	// StepsPerHour converts step indices to hours.
	StepsPerHour int
	// Holiday marks the trace as a holiday (Fig. 6c's much larger hotspot
	// area).
	Holiday bool
}

// DefaultTaxi returns the configuration the experiments use: a 64x64 grid
// with 5-minute steps.
func DefaultTaxi() TaxiConfig {
	return TaxiConfig{
		Seed:          11,
		Grid:          zorder.NewGrid(64),
		EventsPerStep: 10000,
		PeakToNadir:   2.5,
		StepsPerHour:  12,
	}
}

// HotspotsAt reproduces Fig. 6's drift: a commercial-district morning mix,
// an entertainment-district evening mix, and a spread-out holiday-evening
// mix with much larger hot areas.
func (c TaxiConfig) HotspotsAt(hour int) []Hotspot {
	h := hour % 24
	base := []Hotspot{{CX: 0.5, CY: 0.5, Sigma: 0.25, Weight: 0.3}} // ambient
	switch {
	case c.Holiday && h >= 17:
		// Holiday evening: many large hotspots (Fig. 6c).
		return append(base,
			Hotspot{CX: 0.3, CY: 0.3, Sigma: 0.12, Weight: 0.2},
			Hotspot{CX: 0.7, CY: 0.4, Sigma: 0.12, Weight: 0.2},
			Hotspot{CX: 0.4, CY: 0.75, Sigma: 0.15, Weight: 0.2},
			Hotspot{CX: 0.8, CY: 0.8, Sigma: 0.1, Weight: 0.1},
		)
	case h >= 6 && h < 12:
		// Weekday morning: downtown commute (Fig. 6a).
		return append(base,
			Hotspot{CX: 0.25, CY: 0.35, Sigma: 0.06, Weight: 0.45},
			Hotspot{CX: 0.35, CY: 0.2, Sigma: 0.05, Weight: 0.25},
		)
	case h >= 17:
		// Weekday evening: midtown theaters (Fig. 6b).
		return append(base,
			Hotspot{CX: 0.55, CY: 0.6, Sigma: 0.07, Weight: 0.45},
			Hotspot{CX: 0.7, CY: 0.55, Sigma: 0.05, Weight: 0.25},
		)
	default:
		return append(base,
			Hotspot{CX: 0.45, CY: 0.45, Sigma: 0.12, Weight: 0.7},
		)
	}
}

// StepVolume is the event count for a step after diurnal modulation.
func (c TaxiConfig) StepVolume(step int) int {
	hour := 0
	if c.StepsPerHour > 0 {
		hour = step / c.StepsPerHour
	}
	w := WikipediaConfig{PeakToNadir: c.PeakToNadir}
	return int(float64(c.EventsPerStep) * w.DiurnalFactor(hour))
}

// Step generates one timestep of taxi events: key = Z-order cell key,
// value = an event description.
func (c TaxiConfig) Step(step int) []record.Record {
	rng := rand.New(rand.NewSource(c.Seed + int64(step)*2_000_033))
	hour := 0
	if c.StepsPerHour > 0 {
		hour = step / c.StepsPerHour
	}
	spots := c.HotspotsAt(hour)
	var totalW float64
	for _, s := range spots {
		totalW += s.Weight
	}
	n := c.StepVolume(step)
	out := make([]record.Record, 0, n)
	for i := 0; i < n; i++ {
		s := pickHotspot(rng, spots, totalW)
		x := clamp01(rng.NormFloat64()*s.Sigma + s.CX)
		y := clamp01(rng.NormFloat64()*s.Sigma + s.CY)
		z := c.Grid.EncodePoint(x, y)
		kind := "pickup"
		if rng.Intn(2) == 1 {
			kind = "dropoff"
		}
		val := fmt.Sprintf("%s medallion-%04d step-%d", kind, rng.Intn(10000), step)
		out = append(out, record.Pair(zorder.Key(z), val))
	}
	return out
}

func pickHotspot(rng *rand.Rand, spots []Hotspot, totalW float64) Hotspot {
	x := rng.Float64() * totalW
	for _, s := range spots {
		if x < s.Weight {
			return s
		}
		x -= s.Weight
	}
	return spots[len(spots)-1]
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return 0.999999
	}
	return v
}

// TwitterConfig parameterizes synthetic tweet texts.
type TwitterConfig struct {
	Seed     int64
	Keywords []string
}

// DefaultTwitter uses a small topical keyword pool.
func DefaultTwitter() TwitterConfig {
	return TwitterConfig{
		Seed: 13,
		Keywords: []string{
			"traffic", "broadway", "coffee", "parade", "subway", "pizza",
			"yankees", "rain", "concert", "marathon",
		},
	}
}

// Tweet produces the i-th synthetic tweet text.
func (c TwitterConfig) Tweet(i int) string { return c.tweet(rand.New(rand.NewSource(0)), i) }

// tweet produces the i-th tweet with rng re-seeded to c.Seed + i: the same
// draws as a fresh rand.New(rand.NewSource(c.Seed + i)), without building
// a source per tweet.
func (c TwitterConfig) tweet(rng *rand.Rand, i int) string {
	rng.Seed(c.Seed + int64(i))
	k1 := c.Keywords[rng.Intn(len(c.Keywords))]
	k2 := c.Keywords[rng.Intn(len(c.Keywords))]
	return fmt.Sprintf("tweet-%06d %s %s #nyc", i, k1, k2)
}

// MergedStep produces the paper's merged trace for one timestep: every taxi
// event is followed by a tweet carrying the event's coordinate key, so each
// tweet has a location and a timestamp (paper Sec. IV-E).
func MergedStep(taxi TaxiConfig, tw TwitterConfig, step int) []record.Record {
	events := taxi.Step(step)
	out := make([]record.Record, 0, 2*len(events))
	base := step * 1_000_000
	rng := rand.New(rand.NewSource(0))
	for i, ev := range events {
		out = append(out, ev)
		out = append(out, record.Pair(ev.Key, tw.tweet(rng, base+i)))
	}
	return out
}

// RandomRegion picks a random axis-aligned quadtree cell of the grid at the
// given depth and returns the inclusive Z-order key range covering it —
// contiguous by construction, so a key-range filter selects exactly the
// region (the paper's "random geographic region" queries).
func RandomRegion(rng *rand.Rand, g zorder.Grid, depth int) (lo, hi string) {
	side := g.Side()
	cells := uint64(side) * uint64(side)
	if depth < 0 {
		depth = 0
	}
	blocks := uint64(1) << (2 * uint(depth)) // quadtree cells at this depth
	if blocks > cells {
		blocks = cells
	}
	span := cells / blocks
	b := uint64(rng.Int63n(int64(blocks)))
	return zorder.Key(b * span), zorder.Key((b+1)*span - 1)
}

// Chunk splits recs into parts contiguous sub-slices, modeling
// unpartitioned file blocks: record i lands in partition i*parts/len(recs).
// It does not copy. Every part's capacity equals its length, so an append
// through one cannot reach its neighbour; partitions that receive no record
// stay nil.
func Chunk(recs []record.Record, parts int) [][]record.Record {
	if parts < 1 {
		parts = 1
	}
	out := make([][]record.Record, parts)
	n, lo := len(recs), 0
	if n == 0 {
		return out
	}
	for p := range out {
		hi := ((p+1)*n + parts - 1) / parts // first i with i*parts/n > p
		if hi > lo {
			out[p] = recs[lo:hi:hi]
		}
		lo = hi
	}
	return out
}

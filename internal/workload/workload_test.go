package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"stark/internal/record"
	"stark/internal/zorder"
)

func TestWikipediaDeterministic(t *testing.T) {
	cfg := DefaultWikipedia()
	a := cfg.Hour(3)
	b := cfg.Hour(3)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestWikipediaDiurnalVolume(t *testing.T) {
	cfg := DefaultWikipedia()
	peak := len(cfg.Hour(20))
	nadir := len(cfg.Hour(8))
	ratio := float64(peak) / float64(nadir)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("peak/nadir = %v, want ~2 (peak=%d nadir=%d)", ratio, peak, nadir)
	}
}

func TestWikipediaZipfSkew(t *testing.T) {
	cfg := DefaultWikipedia()
	recs := cfg.Hour(0)
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Key]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// The hottest URL must be far above uniform share.
	uniform := len(recs) / len(counts)
	if max < 5*uniform {
		t.Fatalf("max key count %d not skewed vs uniform %d", max, uniform)
	}
	for _, r := range recs {
		if !strings.HasPrefix(r.Key, "/wiki/article-") {
			t.Fatalf("bad key %q", r.Key)
		}
	}
}

func TestDiurnalFactorBounds(t *testing.T) {
	cfg := DefaultWikipedia()
	for h := 0; h < 48; h++ {
		f := cfg.DiurnalFactor(h)
		if f <= 0 || f > 1.5 {
			t.Fatalf("factor(%d) = %v", h, f)
		}
	}
	if cfg.DiurnalFactor(20) <= cfg.DiurnalFactor(8) {
		t.Fatal("peak not above nadir")
	}
}

func TestTaxiStepKeysValid(t *testing.T) {
	cfg := DefaultTaxi()
	recs := cfg.Step(0)
	if len(recs) == 0 {
		t.Fatal("no events")
	}
	for _, r := range recs {
		if len(r.Key) != 16 {
			t.Fatalf("bad key %q", r.Key)
		}
	}
}

func TestTaxiHotspotDrift(t *testing.T) {
	cfg := DefaultTaxi()
	// Cell-occupancy centroids must move between morning and evening.
	centroid := func(step int) (float64, float64) {
		var sx, sy float64
		recs := cfg.Step(step)
		for _, r := range recs {
			var z uint64
			if _, err := parseHex(r.Key, &z); err != nil {
				t.Fatal(err)
			}
			x, y := zorder.Decode(z)
			sx += float64(x)
			sy += float64(y)
		}
		return sx / float64(len(recs)), sy / float64(len(recs))
	}
	mx, my := centroid(8 * cfg.StepsPerHour)  // morning
	ex, ey := centroid(19 * cfg.StepsPerHour) // evening
	dist := (mx-ex)*(mx-ex) + (my-ey)*(my-ey)
	if dist < 4 { // at least a couple of cells apart on a 64-grid
		t.Fatalf("centroids did not move: morning (%v,%v) evening (%v,%v)", mx, my, ex, ey)
	}
}

func parseHex(s string, out *uint64) (int, error) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		v <<= 4
		switch {
		case c >= '0' && c <= '9':
			v |= uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v |= uint64(c-'a') + 10
		}
	}
	*out = v
	return len(s), nil
}

func TestTaxiHolidaySpreads(t *testing.T) {
	wd := DefaultTaxi()
	hol := DefaultTaxi()
	hol.Holiday = true
	// Evening hotspot cell diversity must be larger on the holiday (Fig. 6c).
	diversity := func(cfg TaxiConfig) int {
		seen := map[string]bool{}
		for _, r := range cfg.Step(19 * cfg.StepsPerHour) {
			seen[r.Key] = true
		}
		return len(seen)
	}
	if diversity(hol) <= diversity(wd) {
		t.Fatalf("holiday diversity %d <= weekday %d", diversity(hol), diversity(wd))
	}
}

func TestMergedStepInterleaves(t *testing.T) {
	taxi := DefaultTaxi()
	taxi.EventsPerStep = 100
	recs := MergedStep(taxi, DefaultTwitter(), 0)
	events := taxi.Step(0)
	if len(recs) != 2*len(events) {
		t.Fatalf("merged = %d, want %d", len(recs), 2*len(events))
	}
	for i := 0; i < len(recs); i += 2 {
		if recs[i].Key != recs[i+1].Key {
			t.Fatalf("tweet at %d not co-located with its event", i)
		}
		if !strings.HasPrefix(recs[i+1].Value.(string), "tweet-") {
			t.Fatalf("record %d is not a tweet: %v", i+1, recs[i+1].Value)
		}
	}
}

func TestRandomRegionContiguous(t *testing.T) {
	g := zorder.NewGrid(64)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		lo, hi := RandomRegion(rng, g, 2)
		if lo > hi {
			t.Fatalf("lo %q > hi %q", lo, hi)
		}
		// Depth 2 on a 64x64 grid: 16 blocks of 256 cells each.
		var zl, zh uint64
		if _, err := parseHex(lo, &zl); err != nil {
			t.Fatal(err)
		}
		if _, err := parseHex(hi, &zh); err != nil {
			t.Fatal(err)
		}
		if zh-zl != 255 {
			t.Fatalf("region size %d, want 256 cells", zh-zl+1)
		}
		if zl%256 != 0 {
			t.Fatalf("region not aligned: %d", zl)
		}
	}
}

func TestPartitionAndChunk(t *testing.T) {
	recs := DefaultWikipedia().Hour(0)[:100]
	chunks := Chunk(recs, 3)
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total != 100 {
		t.Fatalf("chunk lost records: %d", total)
	}
	if len(chunks[0]) < 30 || len(chunks[0]) > 36 {
		t.Fatalf("chunk imbalance: %d", len(chunks[0]))
	}
	// Degenerate inputs.
	if got := Chunk(nil, 3); len(got) != 3 {
		t.Fatalf("Chunk(nil) = %v", got)
	}
	if got := Chunk(recs, 0); len(got) != 1 {
		t.Fatalf("Chunk(.,0) = %d parts", len(got))
	}
}

// chunkByRecord is the per-record assignment Chunk used to make by copying:
// record i goes to partition i*numParts/len(recs).
func chunkByRecord(recs []record.Record, numParts int) [][]record.Record {
	if numParts < 1 {
		numParts = 1
	}
	parts := make([][]record.Record, numParts)
	for i, r := range recs {
		p := i * numParts / len(recs)
		parts[p] = append(parts[p], r)
	}
	return parts
}

func TestChunkBoundariesAndAliasing(t *testing.T) {
	for _, n := range []int{0, 1, 7, 16, 1000} {
		for _, numParts := range []int{0, 1, 3, 16, 17, 2000} {
			recs := make([]record.Record, n)
			for i := range recs {
				recs[i] = record.Pair(fmt.Sprintf("key-%04d", i), int64(i))
			}
			got, want := Chunk(recs, numParts), chunkByRecord(recs, numParts)
			if len(got) != len(want) {
				t.Fatalf("len %d parts %d: %d partitions, want %d", n, numParts, len(got), len(want))
			}
			off := 0
			for p := range want {
				if want[p] == nil {
					if got[p] != nil {
						t.Fatalf("len %d parts %d: partition %d = %v, want nil", n, numParts, p, got[p])
					}
					continue
				}
				if !reflect.DeepEqual(got[p], want[p]) {
					t.Fatalf("len %d parts %d: partition %d = %v, want %v", n, numParts, p, got[p], want[p])
				}
				if cap(got[p]) != len(got[p]) {
					t.Fatalf("len %d parts %d: partition %d has cap %d over len %d: an append would clobber its neighbour",
						n, numParts, p, cap(got[p]), len(got[p]))
				}
				if &got[p][0] != &recs[off] {
					t.Fatalf("len %d parts %d: partition %d is a copy, not a view of the input", n, numParts, p)
				}
				off += len(got[p])
			}
		}
	}
}

func TestTweetDeterministic(t *testing.T) {
	tw := DefaultTwitter()
	if tw.Tweet(42) != tw.Tweet(42) {
		t.Fatal("tweets not deterministic")
	}
	if tw.Tweet(1) == tw.Tweet(2) {
		t.Fatal("distinct tweets identical")
	}
}

// TestTweetReseedMatchesFreshSource: one generator re-seeded per tweet, as
// MergedStep runs it, draws what a fresh source per tweet drew.
func TestTweetReseedMatchesFreshSource(t *testing.T) {
	tw := DefaultTwitter()
	shared := rand.New(rand.NewSource(0))
	for _, i := range []int{0, 1, 42, 999_999, 3_000_017} {
		fresh := rand.New(rand.NewSource(tw.Seed + int64(i)))
		k1 := tw.Keywords[fresh.Intn(len(tw.Keywords))]
		k2 := tw.Keywords[fresh.Intn(len(tw.Keywords))]
		want := fmt.Sprintf("tweet-%06d %s %s #nyc", i, k1, k2)
		if got := tw.tweet(shared, i); got != want {
			t.Fatalf("tweet %d = %q, a fresh source gives %q", i, got, want)
		}
		if got := tw.Tweet(i); got != want {
			t.Fatalf("Tweet(%d) = %q, a fresh source gives %q", i, got, want)
		}
	}
}

func TestSyslogIncidentRaisesErrors(t *testing.T) {
	cfg := DefaultSyslog()
	countErrors := func(service string, window int) int {
		n := 0
		for _, r := range cfg.Dataset(service, window) {
			if strings.HasPrefix(r.Value.(string), "ERROR") {
				n++
			}
		}
		return n
	}
	calm := countErrors("api", 0)
	burst := countErrors("api", 2)
	if burst < 5*calm {
		t.Fatalf("incident errors %d not >> background %d", burst, calm)
	}
	// Services outside the blast stay calm during the incident.
	if side := countErrors("cache", 2); side > 3*calm+10 {
		t.Fatalf("blast leaked to cache tier: %d vs %d", side, calm)
	}
	// Deterministic.
	a := cfg.Dataset("db", 1)
	b := cfg.Dataset("db", 1)
	if len(a) != len(b) || a[0] != b[0] {
		t.Fatal("syslog not deterministic")
	}
	// Keys are hosts of the service.
	for _, r := range a[:10] {
		if !strings.HasPrefix(r.Key, "db-") {
			t.Fatalf("bad host key %q", r.Key)
		}
	}
}

// Forensics: the paper's IT-diagnosis scenario (Sec. I). An administrator
// investigates an incident by dynamically LOADING per-service log datasets
// into a co-located namespace, running interactive cross-dataset queries,
// and EVICTING datasets that turn out to be irrelevant — the "dynamic
// dataset collection" in its purest form. Watch the cache hit rate stay
// high while the collection churns.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"stark"
	"stark/internal/workload"
)

func run(windows int) error {
	ctx := stark.NewContext(
		stark.WithCoLocality(),
		stark.WithMCF(),
		stark.WithExecutors(8),
		stark.WithSlots(4),
		stark.WithSizeScale(420),
	)
	p := stark.NewHashPartitioner(16)
	const ns = "logs"
	if err := ctx.RegisterNamespace(ns, p, 1); err != nil {
		return err
	}

	gen := workload.DefaultSyslog()
	loaded := map[string]*stark.RDD{} // "service/window" -> dataset

	load := func(service string, window int) (*stark.RDD, error) {
		key := fmt.Sprintf("%s/w%d", service, window)
		if r, ok := loaded[key]; ok {
			return r, nil
		}
		r := ctx.TextFile(key, gen.Dataset(service, window), 8).
			LocalityPartitionBy(p, ns).Cache()
		if _, err := r.Materialize(); err != nil {
			return nil, err
		}
		loaded[key] = r
		fmt.Printf("loaded  %s\n", key)
		return r, nil
	}
	evict := func(key string) {
		if r, ok := loaded[key]; ok {
			r.Unpersist()
			delete(loaded, key)
			fmt.Printf("evicted %s\n", key)
		}
	}

	errorCount := func(rdds ...*stark.RDD) (int64, stark.JobStats, error) {
		q := ctx.CoGroup(p, rdds...).Filter(func(r stark.Record) bool {
			cg := r.Value.(stark.CoGrouped)
			for _, g := range cg.Groups {
				for _, v := range g {
					if s, ok := v.(string); ok && strings.HasPrefix(s, "ERROR") {
						return true
					}
				}
			}
			return false
		})
		return q.Count()
	}

	// Step 1: the pager fired during window 2. Pull the api logs around it.
	var apiLogs []*stark.RDD
	for w := 1; w <= 3 && w < windows; w++ {
		r, err := load("api", w)
		if err != nil {
			return err
		}
		apiLogs = append(apiLogs, r)
	}
	n, jm, err := errorCount(apiLogs...)
	if err != nil {
		return err
	}
	fmt.Printf("query 1: api hosts with errors in w1-w3: %d (%v, locality %.0f%%)\n",
		n, jm.Makespan(), jm.LocalityFraction()*100)

	// Step 2: correlate with the db tier at the incident window.
	db2, err := load("db", 2)
	if err != nil {
		return err
	}
	n, jm, err = errorCount(apiLogs[1], db2)
	if err != nil {
		return err
	}
	fmt.Printf("query 2: hosts with api+db errors in w2: %d (%v)\n", n, jm.Makespan())

	// Step 3: the cache tier looks innocent — load it, check, evict it.
	cache2, err := load("cache", 2)
	if err != nil {
		return err
	}
	n, _, err = errorCount(cache2)
	if err != nil {
		return err
	}
	fmt.Printf("query 3: cache hosts with errors in w2: %d -> not involved\n", n)
	evict("cache/w2")
	evict("api/w1")

	// Step 4: re-run the correlated query on the trimmed collection.
	n, jm, err = errorCount(apiLogs[1], db2)
	if err != nil {
		return err
	}
	fmt.Printf("query 4 (after eviction): %d hosts (%v, locality %.0f%%)\n",
		n, jm.Makespan(), jm.LocalityFraction()*100)

	st := ctx.Stats()
	fmt.Printf("session: %s\n", st)
	return nil
}

func main() {
	windows := flag.Int("windows", 4, "log windows available")
	flag.Parse()
	if err := run(*windows); err != nil {
		fmt.Fprintln(os.Stderr, "forensics:", err)
		os.Exit(1)
	}
}

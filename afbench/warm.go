package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"autofeat/internal/core"
	"autofeat/internal/datagen"
	"autofeat/internal/lake"
)

// primeClients is how many one-worker priming requests run at once: two
// keep both cores busy.
const primeClients = 2

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// servedLake is one resident lake of discover-warm and the one request
// the clients send it.
type servedLake struct {
	name string
	lk   *lake.Lake
	req  lake.Request
	cfg  core.Config
	ref  string // reference digest
}

// warmSpecs returns discover-warm's lakes: one Table-II analogue each.
func warmSpecs(tiny bool) []datagen.Spec {
	if tiny {
		return datagen.SmallSpecs()
	}
	return datagen.QuickSpecs()
}

// requestSeed derives the Config.Seed of request i from the run seed: it
// drives the base-table sample, join normalisation and model training.
func requestSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) + 1 }

// runWarm is discover-warm: eight resident lakes, warm DRG memos and
// key caches, and one closed-loop client sending ranking-only
// Lake.Discover requests round-robin over the lakes. One request already
// keeps both cores of the two-core host the bounds were set on busy
// (Workers defaults to GOMAXPROCS); a second client measured lower
// throughput, doubled latency and a run-to-run spread of about a fifth,
// set by which requests happened to overlap.
func runWarm(p params) (*result, error) {
	ctx := context.Background()
	specs := warmSpecs(p.tiny)
	lakes := make([]*servedLake, len(specs))
	for i, s := range specs {
		cfg := core.DefaultConfig()
		cfg.Seed = requestSeed(p.seed, i)
		lakes[i] = &servedLake{name: s.Name, cfg: cfg}
	}
	rec := (*recorder)(nil)
	if p.trace {
		rec = newRecorder()
	}
	cal := newCalibrator()
	var setups []interval
	var drgs []float64
	var counts searchCounts
	for rep := 0; rep < setupReps; rep++ {
		// Fresh tables per set-up: column memos must start cold too.
		data := make([]*datagen.Dataset, len(specs))
		for i, s := range specs {
			ds, err := datagen.Generate(s)
			if err != nil {
				return nil, err
			}
			data[i] = ds
			lakes[i].req = lake.Request{Base: ds.Base.Name(), Label: ds.Label}
		}
		var drgTime time.Duration
		var results []*lake.Result
		iv, err := cal.timed(func() (err error) {
			fresh := make([]*lake.Lake, len(lakes))
			for i := range lakes {
				fresh[i] = lake.New(data[i].Tables)
				t0 := time.Now()
				if err := rec.timed(spanDRG, func() error { _, err := fresh[i].DRG(); return err }); err != nil {
					return err
				}
				drgTime += time.Since(t0)
			}
			results, err = prime(ctx, fresh, lakes)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, iv)
		drgs = append(drgs, secs(drgTime))
		// The first set-up's priming results are the references; every
		// later one must match them.
		for i, sl := range lakes {
			d := digest(results[i])
			switch {
			case rep == 0 && p.corruptRef:
				sl.ref = "corrupt-" + d
			case rep == 0:
				sl.ref = d
				counts.add(results[i].Ranking)
			case d != sl.ref && !p.corruptRef:
				return nil, fmt.Errorf("set-up %d of %s: digest %s differs from the first set-up's %s", rep+1, sl.name, d, sl.ref)
			}
		}
	}

	op := func(rec *recorder) func(k int) (interval, bool) {
		return func(k int) (interval, bool) {
			sl := lakes[(k+int(uint64(p.seed)%uint64(len(lakes))))%len(lakes)]
			cfg, q := rec.traceConfig(sl.cfg)
			iv := interval{start: time.Now()}
			res, err := discover(ctx, sl.lk, sl.req, cfg)
			iv.end = time.Now()
			q.finish()
			return iv, err == nil && digest(res) == sl.ref
		}
	}
	window := p.window
	if p.trace {
		window /= 2
	}
	before := readRuntime()
	ivs, failed := cal.closedLoop(len(lakes), window, op(nil))
	after := readRuntime()
	res := &result{attempted: len(ivs), failed: failed}
	res.e2e, res.raw = endToEnd(cal, setups, ivs)
	if !p.trace {
		res.e2e["heap_live_mb"] = liveHeapMB()
		runtime.KeepAlive(lakes)
		return res, nil
	}

	hits0, misses0 := cacheStats(lakes)
	traced, tfailed := cal.closedLoop(len(lakes), window, op(rec))
	hits1, misses1 := cacheStats(lakes)
	res.attempted += len(traced)
	res.failed += tfailed
	m := rec.layerMetrics(len(traced))
	for k, v := range goMetrics(before, after, len(ivs)) {
		m[k] = v
	}
	var edges, cands, entries int
	for _, sl := range lakes {
		g, err := sl.lk.DRG()
		if err != nil {
			return nil, err
		}
		edges += g.NumEdges()
		cands += candidatePairs(sl.lk)
		entries += sl.lk.CacheSize()
	}
	m["discovery.drg_build_s"] = median(drgs)
	m["discovery.drg_edges"] = float64(edges)
	m["discovery.candidate_yield"] = ratio(edges, cands)
	m["relational.key_cache_hit_ratio"] = ratio(int(hits1-hits0), int(hits1-hits0+misses1-misses0))
	m["relational.key_cache_entries"] = float64(entries)
	counts.put(m)
	m["trace.overhead_ratio"] = cal.meanMs(traced) / cal.meanMs(ivs)
	m["host.kernel_ms"] = cal.medianKernel()
	res.layer = m
	return res, rec.write(p.traceOut)
}

// discover sends one request with cfg to lk.
func discover(ctx context.Context, lk *lake.Lake, req lake.Request, cfg core.Config) (*lake.Result, error) {
	req.Config = &cfg
	return lk.Discover(ctx, req)
}

// cacheStats sums the lakes' cumulative key-index cache counters.
func cacheStats(lakes []*servedLake) (hits, misses int64) {
	for _, sl := range lakes {
		h, m := sl.lk.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// prime sends each served lake's request once to its fresh lake with one
// worker, primeClients requests at a time, and installs the primed lakes.
// One-worker results are the references the measured requests, which run
// with the default worker pool, must reproduce bit for bit.
func prime(ctx context.Context, fresh []*lake.Lake, lakes []*servedLake) ([]*lake.Result, error) {
	results := make([]*lake.Result, len(lakes))
	errs := make([]error, len(lakes))
	sem := make(chan struct{}, primeClients)
	var wg sync.WaitGroup
	for i, sl := range lakes {
		cfg := sl.cfg
		cfg.Workers = 1
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			results[i], errs[i] = discover(ctx, fresh[i], sl.req, cfg)
			<-sem
		}()
	}
	wg.Wait()
	for i, sl := range lakes {
		if errs[i] != nil {
			return nil, fmt.Errorf("prime %s: %w", sl.name, errs[i])
		}
		sl.lk = fresh[i]
	}
	return results, nil
}

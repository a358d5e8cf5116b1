package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"autofeat/internal/core"
	"autofeat/internal/datagen"
	"autofeat/internal/lake"
)

// coldSpec is augment-cold's lake: paper-scale covertype (20,000 rows,
// 12 joinable tables).
func coldSpec(tiny bool) datagen.Spec {
	if tiny {
		return datagen.SmallSpecs()[0]
	}
	s, _ := datagen.SpecByName("covertype")
	return s
}

// runCold is augment-cold: one client paying the CLI's per-invocation
// cost, OpenLake on a CSV lake plus Lake.Discover with model training,
// with nothing warm between operations.
func runCold(p params) (*result, error) {
	ctx := context.Background()
	spec := coldSpec(p.tiny)
	ds, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(p.dataDir, spec.Name)
	for _, t := range ds.Tables {
		if err := t.WriteCSVFile(filepath.Join(dir, t.Name()+".csv")); err != nil {
			return nil, err
		}
	}
	cfg := core.DefaultConfig()
	cfg.Seed = requestSeed(p.seed, 0)
	req := lake.Request{Base: ds.Base.Name(), Label: ds.Label, Model: "lightgbm"}

	refCfg := cfg
	refCfg.Workers = 1
	refLake, err := lake.Open(dir)
	if err != nil {
		return nil, err
	}
	refRes, err := discover(ctx, refLake, req, refCfg)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	ref := digest(refRes)
	var counts searchCounts
	counts.add(refRes.Ranking)
	accuracy := refRes.Augment.Best.Eval.Accuracy
	if p.corruptRef {
		ref = "corrupt-" + ref
	}

	rec := (*recorder)(nil)
	if p.trace {
		rec = newRecorder()
	}
	cal := newCalibrator()
	var setups []interval
	var opens, drgs []float64
	for rep := 0; rep < setupReps; rep++ {
		var lk *lake.Lake
		var open, drg time.Duration
		iv, err := cal.timed(func() error {
			start := time.Now()
			if err := rec.timed(spanOpen, func() (err error) { lk, err = lake.Open(dir); return err }); err != nil {
				return err
			}
			open = time.Since(start)
			err := rec.timed(spanDRG, func() error { _, err := lk.DRG(); return err })
			drg = time.Since(start) - open
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, iv)
		opens = append(opens, secs(open))
		drgs = append(drgs, secs(drg))
	}

	// last keeps the final operation's lake and result reachable for the
	// live-heap reading: the footprint of one opened, augmented lake.
	var last struct {
		lk  *lake.Lake
		res *lake.Result
	}
	op := func(rec *recorder) func(int) (interval, bool) {
		return func(int) (interval, bool) {
			iv := interval{start: time.Now()}
			var lk *lake.Lake
			if err := rec.timed(spanOpen, func() (err error) { lk, err = lake.Open(dir); return err }); err != nil {
				iv.end = time.Now()
				return iv, false
			}
			opens = append(opens, secs(time.Since(iv.start)))
			c, q := rec.traceConfig(cfg)
			res, err := discover(ctx, lk, req, c)
			iv.end = time.Now()
			q.finish()
			last.lk, last.res = lk, res
			return iv, err == nil && digest(res) == ref
		}
	}
	window := p.window
	if p.trace {
		window /= 2
	}
	before := readRuntime()
	ivs, failed := cal.closedLoop(1, window, op(nil))
	after := readRuntime()
	res := &result{attempted: len(ivs), failed: failed}
	res.e2e, res.raw = endToEnd(cal, setups, ivs)
	if !p.trace {
		res.e2e["heap_live_mb"] = liveHeapMB()
		runtime.KeepAlive(last)
		return res, nil
	}

	traced, tfailed := cal.closedLoop(1, window, op(rec))
	res.attempted += len(traced)
	res.failed += tfailed
	m := rec.layerMetrics(len(traced))
	for k, v := range goMetrics(before, after, len(ivs)) {
		m[k] = v
	}
	if last.lk == nil {
		return nil, fmt.Errorf("no traced operation completed")
	}
	g, err := last.lk.DRG()
	if err != nil {
		return nil, err
	}
	hits, misses := last.lk.CacheStats()
	m["lake.open_s"] = median(opens)
	m["discovery.drg_build_s"] = median(drgs)
	m["discovery.drg_edges"] = float64(g.NumEdges())
	m["discovery.candidate_yield"] = ratio(g.NumEdges(), candidatePairs(last.lk))
	m["relational.key_cache_hit_ratio"] = ratio(int(hits), int(hits+misses))
	m["relational.key_cache_entries"] = float64(last.lk.CacheSize())
	counts.put(m)
	m["ml.best_accuracy"] = accuracy
	m["trace.overhead_ratio"] = cal.meanMs(traced) / cal.meanMs(ivs)
	m["host.kernel_ms"] = cal.medianKernel()
	res.layer = m
	return res, rec.write(p.traceOut)
}

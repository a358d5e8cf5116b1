package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"autofeat/internal/core"
	"autofeat/internal/datagen"
	"autofeat/internal/frame"
	"autofeat/internal/lake"
)

// lake-churn shape. The lake holds paper-scale credit plus distractor
// tables in key groups of eight; the writer upserts one of credit's
// joinable tables at upsertRate per second.
const (
	churnTables       = 256
	churnGroup        = 8
	churnRows         = 240
	maxEdgesPerTable  = 8 // set-up fails above this DRG density
	churnTinyTables   = 24
	churnTinyRows     = 40
	churnUpsertedSlot = 1 // index into the credit dataset's tables
	// churnSetupReps is how many times lake-churn sets up: its set-up
	// is short, so more repetitions steady the median at little cost.
	churnSetupReps = 5
)

// upsertRate is the writer's fixed rate, per second. Every reader
// request should run against a table the writer replaced since the
// previous request, so that each one pays for the key indexes an upsert
// evicts; that is what lake-churn measures. On the reference host the
// reader's median request takes about 0.95 s (latency_p50_ms), so 4/s
// puts about four upserts in every request, and still one in a request
// four times faster. The writer's own work, payload parse plus
// ReplaceTable, takes about 5 ms per upsert there, so at this rate the
// writer uses about 2% of one core and leaves the reader the host. The
// traced run reports both figures, lake.upserts_per_read and
// lake.writer_core_share.
const upsertRate = 4.0

// payload is one pre-encoded version of the upserted table.
type payload struct {
	columnar bool
	data     []byte
}

// churnLake generates lake-churn's tables: the credit dataset and its
// distractors, all derived from seed.
func churnLake(seed int64, tiny bool) (*datagen.Dataset, []*frame.Frame, error) {
	spec, _ := datagen.SpecByName("credit")
	n, rows := churnTables, churnRows
	if tiny {
		spec = datagen.SmallSpecs()[0]
		n, rows = churnTinyTables, churnTinyRows
	}
	ds, err := datagen.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	d := distractors(n-len(ds.Tables), rows, rng)
	return ds, d, nil
}

// distractors builds n tables in key groups of churnGroup. Tables of one
// group share a key column name and overlapping key ranges, so they form
// DRG edges among themselves; groups share neither names nor values.
// Every other column holds values private to its table: a shared string
// vocabulary or flag column would connect every table to every other and
// turn the DRG into a near-clique.
func distractors(n, rows int, rng *rand.Rand) []*frame.Frame {
	groups := max(n/churnGroup, 1)
	out := make([]*frame.Frame, n)
	for i := range out {
		g := i % groups
		keys := make([]int64, rows)
		// A sliding window over the group's key space of 2*rows values:
		// neighbours in a group overlap by a third to all of their keys.
		off := (i / groups) * rows / 3
		for r := range keys {
			keys[r] = int64(g*1_000_000 + (off+r)%(2*rows))
		}
		amount := make([]float64, rows)
		score := make([]float64, rows)
		tags := make([]string, rows)
		for r := 0; r < rows; r++ {
			amount[r] = rng.NormFloat64()*100 + 500
			score[r] = rng.Float64()
			tags[r] = fmt.Sprintf("d%03d-%d", i, rng.Intn(rows))
		}
		f := frame.New(fmt.Sprintf("zd%03d", i))
		for _, c := range []*frame.Column{
			frame.NewIntColumn(fmt.Sprintf("key_g%d", g), keys, nil),
			frame.NewFloatColumn("amount", amount, nil),
			frame.NewFloatColumn("score", score, nil),
			frame.NewStringColumn("tag", tags, nil),
		} {
			if err := f.AddColumn(c); err != nil {
				panic(err) // distinct names by construction
			}
		}
		out[i] = f
	}
	return out
}

// perturbed returns a copy of f whose float columns carry seeded
// multiplicative noise: a new version of the same table, with the same
// keys and therefore the same joins.
func perturbed(f *frame.Frame, rng *rand.Rand) (*frame.Frame, error) {
	out := frame.New(f.Name())
	for _, c := range f.Columns() {
		if c.Kind() == frame.Float {
			vals := c.Floats()
			valid := make([]bool, len(vals))
			for i := range vals {
				valid[i] = c.IsValid(i)
				vals[i] *= 1 + 0.05*rng.NormFloat64()
			}
			c = frame.NewFloatColumn(c.Name(), vals, valid)
		}
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// encode renders f as a CSV and a columnar payload.
func encode(f *frame.Frame) ([]payload, error) {
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		return nil, err
	}
	colr, err := frame.EncodeColumnar(f)
	if err != nil {
		return nil, err
	}
	return []payload{{data: buf.Bytes()}, {columnar: true, data: colr}}, nil
}

// parse decodes a payload into a table named name.
func (pl payload) parse(name string) (*frame.Frame, error) {
	if pl.columnar {
		return frame.DecodeColumnar(name, pl.data)
	}
	return frame.ReadCSV(name, bytes.NewReader(pl.data))
}

// upserts is the writer's record of one measurement window.
type upserts struct {
	lat    []float64     // from scheduled send to ReplaceTable return, ms
	late   []float64     // from scheduled send to actual send, ms
	work   time.Duration // spent in payload parse and ReplaceTable
	failed int
}

// runChurn is lake-churn: one resident 256-table lake, one closed-loop
// reader sending Lake.Discover on credit, and one open-loop writer
// upserting a credit table from CSV or columnar payloads.
func runChurn(p params) (*result, error) {
	ctx := context.Background()
	ds, extra, err := churnLake(p.seed, p.tiny)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(p.dataDir, "lake")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Half the tables packed, half CSV.
	for i, t := range append(append([]*frame.Frame(nil), ds.Tables...), extra...) {
		path := filepath.Join(dir, t.Name())
		if i%2 == 0 {
			err = frame.WriteColumnarFile(t, path+frame.FormatExt)
		} else {
			err = t.WriteCSVFile(path + ".csv")
		}
		if err != nil {
			return nil, err
		}
	}
	target := ds.Tables[churnUpsertedSlot]
	rng := rand.New(rand.NewSource(p.seed ^ 0x5eed))
	v1, err := perturbed(target, rng)
	if err != nil {
		return nil, err
	}
	var versions [2][]payload
	for i, f := range []*frame.Frame{target, v1} {
		if versions[i], err = encode(f); err != nil {
			return nil, err
		}
	}

	cfg := core.DefaultConfig()
	cfg.Seed = requestSeed(p.seed, 0)
	req := lake.Request{Base: ds.Base.Name(), Label: ds.Label}
	rec := (*recorder)(nil)
	if p.trace {
		rec = newRecorder()
	}
	cal := newCalibrator()
	var lk *lake.Lake
	var setups []interval
	var opens, drgs []float64
	var counts searchCounts
	for rep := 0; rep < churnSetupReps; rep++ {
		var open, drg time.Duration
		iv, err := cal.timed(func() error {
			start := time.Now()
			if err := rec.timed(spanOpen, func() (err error) { lk, err = lake.Open(dir); return err }); err != nil {
				return err
			}
			open = time.Since(start)
			if err := rec.timed(spanDRG, func() error { _, err := lk.DRG(); return err }); err != nil {
				return err
			}
			drg = time.Since(start) - open
			prime, err := discover(ctx, lk, req, cfg)
			if err != nil {
				return fmt.Errorf("prime: %w", err)
			}
			if prime.Ranking.Partial {
				return fmt.Errorf("prime: partial ranking (%s)", prime.Ranking.PartialReason)
			}
			if rep == 0 {
				counts.add(prime.Ranking)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, iv)
		opens = append(opens, secs(open))
		drgs = append(drgs, secs(drg))
	}
	g, err := lk.DRG()
	if err != nil {
		return nil, err
	}
	if g.NumEdges() > maxEdgesPerTable*g.NumNodes() {
		return nil, fmt.Errorf("DRG has %d edges over %d tables, above %d per table: the generated lake is too dense",
			g.NumEdges(), g.NumNodes(), maxEdgesPerTable)
	}

	// writer upserts on a fixed schedule until the window ends; each
	// operation is timed from when it was due, so a stall also delays
	// the operations queued behind it.
	k := 0 // upserts sent so far, across windows
	phase := time.Duration(rand.New(rand.NewSource(p.seed)).Int63n(int64(time.Second / upsertRate)))
	writer := func(rec *recorder, start time.Time, window time.Duration, w *upserts) {
		period := time.Duration(float64(time.Second) / upsertRate)
		for due := start.Add(phase); due.Before(start.Add(window)); due = due.Add(period) {
			time.Sleep(time.Until(due))
			sent := time.Now()
			pl := versions[(k+int(uint64(p.seed)%2))%2][(k/2)%2]
			k++
			name := spanReadCSV
			if pl.columnar {
				name = spanDecodeColr
			}
			var f *frame.Frame
			done := cal.busy()
			err := rec.timed(name, func() (err error) { f, err = pl.parse(target.Name()); return err })
			if err == nil {
				err = rec.timed(spanReplace, func() error { return lk.ReplaceTable(f) })
			}
			done()
			w.work += time.Since(sent)
			w.lat = append(w.lat, ms(time.Since(due)))
			w.late = append(w.late, ms(sent.Sub(due)))
			if err != nil {
				w.failed++
			}
		}
	}
	measure := func(rec *recorder, window time.Duration) (ivs []interval, failed int, w *upserts) {
		w = &upserts{}
		var wg sync.WaitGroup
		wg.Add(1)
		start := time.Now()
		go func() {
			defer wg.Done()
			writer(rec, start, window, w)
		}()
		ivs, failed = cal.closedLoop(1, window, func(int) (interval, bool) {
			c, q := rec.traceConfig(cfg)
			iv := interval{start: time.Now()}
			res, err := discover(ctx, lk, req, c)
			iv.end = time.Now()
			q.finish()
			return iv, err == nil && !res.Ranking.Partial
		})
		wg.Wait()
		return ivs, failed, w
	}

	window := p.window
	if p.trace {
		window /= 2
	}
	before := readRuntime()
	ivs, failed, w := measure(nil, window)
	after := readRuntime()
	res := &result{attempted: len(ivs) + len(w.lat), failed: failed + w.failed}
	res.e2e, res.raw = endToEnd(cal, setups, ivs)
	if !p.trace {
		res.e2e["heap_live_mb"] = liveHeapMB()
		runtime.KeepAlive(lk)
		return res, nil
	}

	hits0, misses0 := lk.CacheStats()
	traced, tfailed, tw := measure(rec, window)
	hits1, misses1 := lk.CacheStats()
	res.attempted += len(traced) + len(tw.lat)
	res.failed += tfailed + tw.failed
	m := rec.layerMetrics(len(traced))
	for k, v := range goMetrics(before, after, len(ivs)) {
		m[k] = v
	}
	if g, err = lk.DRG(); err != nil {
		return nil, err
	}
	m["lake.open_s"] = median(opens)
	m["lake.upsert_p50_ms"] = quantile(w.lat, 0.5)
	m["lake.upsert_p90_ms"] = quantile(w.lat, 0.9)
	m["lake.upsert_late_p90_ms"] = quantile(w.late, 0.9)
	m["lake.upserts_per_read"] = ratio(len(w.lat), len(ivs))
	m["lake.writer_core_share"] = w.work.Seconds() / window.Seconds()
	m["discovery.drg_build_s"] = median(drgs)
	m["discovery.drg_edges"] = float64(g.NumEdges())
	m["discovery.candidate_yield"] = ratio(g.NumEdges(), candidatePairs(lk))
	m["relational.key_cache_hit_ratio"] = ratio(int(hits1-hits0), int(hits1-hits0+misses1-misses0))
	m["relational.key_cache_entries"] = float64(lk.CacheSize())
	counts.put(m)
	m["trace.overhead_ratio"] = cal.meanMs(traced) / cal.meanMs(ivs)
	m["host.kernel_ms"] = cal.medianKernel()
	res.layer = m
	return res, rec.write(p.traceOut)
}

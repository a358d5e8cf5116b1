package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"autofeat/internal/core"
	"autofeat/internal/fselect"
	"autofeat/internal/telemetry"
)

// Span names the benchmark records. Spans below "lake.discover" come from
// the relevance/redundancy wrappers and from the per-request telemetry
// collector; the rest wrap the benchmark's own calls into the Lake API.
const (
	spanOpen       = "lake.open"
	spanDRG        = "lake.drg"
	spanReadCSV    = "frame.read_csv"
	spanDecodeColr = "frame.decode_columnar"
	spanReplace    = "lake.replace"
	spanDiscover   = "lake.discover"
	spanSelection  = "core.selection"
	spanLeftJoin   = "relational.left_join"
	spanRelevance  = "fselect.relevance"
	spanRedundancy = "fselect.redundancy"
	spanMaterial   = "core.materialize"
	spanTrainEval  = "ml.train_eval"
)

// imported maps the collector span names the benchmark keeps to its own
// layer names; every other collector span is folded into its nearest kept
// ancestor. The collector's own fselect spans are not imported (the
// wrappers time the same calls) but are summed for the cross-check.
var imported = map[string]string{
	telemetry.SpanRun:         spanSelection,
	telemetry.SpanLeftJoin:    spanLeftJoin,
	telemetry.SpanMaterialize: spanMaterial,
	telemetry.SpanTrainEval:   spanTrainEval,
}

// span is one timed interval. Start and End are offsets from the
// recorder's epoch; Req groups the spans of one request (0 = set-up).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Cands, Pairs and Kept annotate redundancy spans: candidates
	// offered, candidates x selected features scored, candidates kept.
	Cands int `json:"cands,omitempty"`
	Pairs int `json:"pairs,omitempty"`
	Kept  int `json:"kept,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	reqs  int
	// orphans lists, per request, the wrapper spans still waiting for
	// their parent: the wrappers cannot see the collector's span context.
	orphans map[int][]int
	redWrap time.Duration // wrapper-timed redundancy, for the cross-check
	redColl time.Duration // collector-timed fselect.redundancy phase
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), orphans: map[int][]int{}}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// add stores a finished span and returns its ID.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	if s.Req != 0 && s.Parent == 0 && s.Name != spanDiscover {
		r.orphans[s.Req] = append(r.orphans[s.Req], s.ID)
	}
	return s.ID
}

// newRequest allocates a request ID.
func (r *recorder) newRequest() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs++
	return r.reqs
}

// timed runs fn inside a root span named name and returns fn's error.
func (r *recorder) timed(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	start := r.now()
	err := fn()
	r.add(span{Name: name, Start: start, End: r.now()})
	return err
}

// request is the tracing context of one Lake.Discover call: its request
// ID, the wrapper metrics injected through Config, and the telemetry
// collector whose join, materialise and train spans are imported when the
// call returns.
type request struct {
	r     *recorder
	id    int
	coll  *telemetry.Collector
	cEpoc time.Duration
	start time.Duration
}

// traceConfig returns cfg instrumented for one traced request: the
// relevance and redundancy metrics wrapped, and a fresh collector
// attached. A nil recorder returns cfg unchanged.
func (r *recorder) traceConfig(cfg core.Config) (core.Config, *request) {
	if r == nil {
		return cfg, nil
	}
	q := &request{r: r, id: r.newRequest()}
	cfg.Relevance = &relevanceWrap{inner: cfg.Relevance, q: q}
	cfg.Redundancy = &redundancyWrap{inner: cfg.Redundancy, q: q}
	epoch := time.Now()
	first := true
	q.cEpoc = epoch.Sub(r.epoch)
	// The tracer reads its epoch once, at construction, before any other
	// goroutine sees the collector.
	q.coll = telemetry.NewWithClock(func() time.Time {
		if first {
			first = false
			return epoch
		}
		return time.Now()
	})
	cfg.Telemetry = q.coll
	q.start = r.now()
	return cfg, q
}

// finish closes the request's lake.discover span and imports the
// collector's spans beneath it.
func (q *request) finish() {
	if q == nil {
		return
	}
	r := q.r
	end := r.now()
	root := r.add(span{Req: q.id, Name: spanDiscover, Start: q.start, End: end})
	snap := q.coll.Snapshot()
	byID := make(map[int]telemetry.SpanRecord, len(snap.Spans))
	for _, s := range snap.Spans {
		byID[s.ID] = s
	}
	mine := map[int]int{} // collector span ID -> recorder span ID
	// Collector IDs are assigned in start order, so parents precede
	// children and one pass resolves every kept ancestor.
	sort.Slice(snap.Spans, func(i, j int) bool { return snap.Spans[i].ID < snap.Spans[j].ID })
	var redColl time.Duration
	for _, s := range snap.Spans {
		if s.Name == telemetry.SpanRedundancy {
			redColl += s.Duration()
		}
		name, keep := imported[s.Name]
		if !keep || s.DurUS < 0 {
			continue
		}
		parent := root
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if id, ok := mine[p]; ok {
				parent = id
				break
			}
		}
		start := q.cEpoc + time.Duration(s.StartUS)*time.Microsecond
		mine[s.ID] = r.add(span{
			Parent: parent, Req: q.id, Name: name,
			Start: start, End: start + s.Duration(),
		})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.redColl += redColl
	// The wrappers ran inside the run span, so hang them there.
	sel := root
	for _, id := range mine {
		if r.spans[id-1].Name == spanSelection {
			sel = id
		}
	}
	for _, id := range r.orphans[q.id] {
		r.spans[id-1].Parent = sel
	}
	delete(r.orphans, q.id)
}

// relevanceWrap delegates to the configured relevance metric and records
// one span per call.
type relevanceWrap struct {
	inner fselect.Relevance
	q     *request
}

func (w *relevanceWrap) Name() string { return w.inner.Name() }

func (w *relevanceWrap) Scores(cols [][]float64, y []int) []float64 {
	start := w.q.r.now()
	out := w.inner.Scores(cols, y)
	w.q.r.add(span{Req: w.q.id, Name: spanRelevance, Start: start, End: w.q.r.now()})
	return out
}

// redundancyWrap delegates to the configured redundancy metric and
// records one span per call, annotated with the pairs it scored.
type redundancyWrap struct {
	inner fselect.Redundancy
	q     *request
}

func (w *redundancyWrap) Name() string { return w.inner.Name() }

func (w *redundancyWrap) Select(candidates, selected [][]float64, y []int) ([]int, []float64) {
	start := w.q.r.now()
	idx, scores := w.inner.Select(candidates, selected, y)
	end := w.q.r.now()
	w.q.r.add(span{
		Req: w.q.id, Name: spanRedundancy, Start: start, End: end,
		Cands: len(candidates), Pairs: len(candidates) * len(selected), Kept: len(idx),
	})
	w.q.r.mu.Lock()
	w.q.r.redWrap += end - start
	w.q.r.mu.Unlock()
	return idx, scores
}

// selfTimes returns, per span name, the summed self time of its spans: a
// span's duration minus the part of its interval that its children's
// intervals cover. Children running in parallel overlap, so the covered
// part is the union of their intervals, not the sum of their durations.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of p's interval the union of kids covers.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerMetrics aggregates the recorded spans of ops measured requests
// into the per-layer metrics: seconds and call counts per operation,
// medians for set-up and mutation layers, redundancy work ratios, and
// self time per layer.
func (r *recorder) layerMetrics(ops int) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := float64(max(ops, 1))
	total := map[string]time.Duration{}
	count := map[string]int{}
	lists := map[string][]float64{}
	var cands, pairs, kept int
	for _, s := range r.spans {
		total[s.Name] += s.dur()
		count[s.Name]++
		lists[s.Name] = append(lists[s.Name], ms(s.dur()))
		if s.Name == spanRedundancy {
			cands += s.Cands
			pairs += s.Pairs
			kept += s.Kept
		}
	}
	self := selfTimes(r.spans)
	perOp := func(name string) float64 { return total[name].Seconds() / n }
	m := map[string]float64{
		"lake.replace_ms":          median(lists[spanReplace]),
		"frame.read_csv_ms":        median(lists[spanReadCSV]),
		"frame.decode_columnar_ms": median(lists[spanDecodeColr]),
		"core.selection_s":         perOp(spanSelection),
		"core.self_s":              self[spanSelection].Seconds() / n,
		"core.materialize_s":       perOp(spanMaterial),
		"relational.left_join_s":   perOp(spanLeftJoin),
		"relational.joins":         float64(count[spanLeftJoin]) / n,
		"fselect.relevance_s":      perOp(spanRelevance),
		"fselect.relevance_calls":  float64(count[spanRelevance]) / n,
		"fselect.redundancy_s":     perOp(spanRedundancy),
		"fselect.redundancy_calls": float64(count[spanRedundancy]) / n,
		"fselect.redundancy_pairs": float64(pairs) / n,
		"ml.train_eval_s":          perOp(spanTrainEval),
		"ml.train_evals":           float64(count[spanTrainEval]) / n,
		"lake.discover_self_s":     self[spanDiscover].Seconds() / n,
		"core.materialize_self_s":  self[spanMaterial].Seconds() / n,
	}
	if pairs > 0 {
		m["fselect.redundancy_ns_per_pair"] = float64(total[spanRedundancy].Nanoseconds()) / float64(pairs)
	} else {
		m["fselect.redundancy_ns_per_pair"] = 0
	}
	if cands > 0 {
		m["fselect.redundancy_kept_ratio"] = float64(kept) / float64(cands)
	} else {
		m["fselect.redundancy_kept_ratio"] = 0
	}
	if r.redColl > 0 {
		m["trace.redundancy_crosscheck"] = r.redWrap.Seconds() / r.redColl.Seconds()
	} else {
		m["trace.redundancy_crosscheck"] = 0
	}
	return m
}

// write stores the recorded spans as JSON at path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

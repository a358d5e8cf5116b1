package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"autofeat/internal/frame"
	"autofeat/internal/graph"
	"autofeat/internal/ml"
	"autofeat/internal/obsrv"
	"autofeat/internal/relational"
	"autofeat/internal/telemetry"
)

// agreementLake is testLake plus the shapes that trip the remaining
// pruning reasons at depth 1: a weaker parallel base->bridge edge
// (similarity), a "broken" table the fault shim fails to join
// (join_failed) and a "side" table that survives next to bridge, so a
// beam of width 1 evicts one state.
func agreementLake(t *testing.T) *graph.Graph {
	g := testLake(t, 200)
	mustEdge(t, g, graph.Edge{A: "base", B: "bridge", ColA: "noise", ColB: "pid", Weight: 0.3})
	for _, name := range []string{"side", "broken"} {
		tab := frame.New(name)
		ids := make([]int64, 200)
		vals := make([]float64, 200)
		for j := range ids {
			ids[j] = int64(j)
			vals[j] = float64(j % 5)
		}
		addCol(t, tab, frame.NewIntColumn("k", ids, nil))
		addCol(t, tab, frame.NewFloatColumn("v", vals, nil))
		g.AddTable(tab)
		mustEdge(t, g, graph.Edge{A: "base", B: name, ColA: "id", ColB: "k", Weight: 1, KFK: true})
	}
	return g
}

// TestRunViewsAgree runs fault-injected discoveries that together hit
// every pruning reason, at workers 1 and 8, and checks that the four
// views of a run — Ranking.Prune, Manifest.Pruned, the telemetry
// counters and the live RunStatus — report the same facts.
func TestRunViewsAgree(t *testing.T) {
	failBroken := func(left, right *frame.Frame, leftKey, rightKey string, opt relational.Options) (*relational.Result, error) {
		if right.Name() == "broken" {
			return nil, fmt.Errorf("injected fault joining %q", right.Name())
		}
		return relational.LeftJoin(left, right, leftKey, rightKey, opt)
	}
	scenarios := []struct {
		name string
		lake func(*testing.T) *graph.Graph
		// setup configures the run; cancel stops its context.
		setup   func(cfg *Config, cancel context.CancelFunc)
		augment bool
		want    []string // reasons that must fire
	}{
		{
			name: "prune",
			lake: agreementLake,
			setup: func(cfg *Config, _ context.CancelFunc) {
				cfg.BeamWidth = 1
				cfg.joinFn = failBroken
			},
			want: []string{telemetry.PruneSimilarity, telemetry.PruneJoinFailed,
				telemetry.PruneQualityBelowTau, telemetry.PruneBeamEvicted},
		},
		{
			name:  "max_paths",
			lake:  func(t *testing.T) *graph.Graph { return testLake(t, 200) },
			setup: func(cfg *Config, _ context.CancelFunc) { cfg.MaxPaths = 1 },
			want:  []string{telemetry.PruneMaxPathsCap},
		},
		{
			name:  "budget",
			lake:  func(t *testing.T) *graph.Graph { return testLake(t, 200) },
			setup: func(cfg *Config, _ context.CancelFunc) { cfg.MaxEvalJoins = 2 },
			want:  []string{telemetry.PruneBudgetExhausted},
		},
		{
			// The cancellation injection of
			// TestCancelledRunReturnsDeterministicPartial, run end to end:
			// the evaluation phase sees the cancelled context too and
			// must not count the run as partial a second time.
			name: "cancelled",
			lake: func(t *testing.T) *graph.Graph { return testLake(t, 200) },
			setup: func(cfg *Config, cancel context.CancelFunc) {
				var calls atomic.Int64
				cfg.joinFn = func(left, right *frame.Frame, leftKey, rightKey string, opt relational.Options) (*relational.Result, error) {
					if calls.Add(1) > 2 {
						cancel()
					}
					return relational.LeftJoin(left, right, leftKey, rightKey, opt)
				}
			},
			augment: true,
			want:    []string{telemetry.PruneCancelled, telemetry.PruneQualityBelowTau},
		},
	}
	hit := map[string]bool{}
	for _, sc := range scenarios {
		var first string
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("%s/workers=%d", sc.name, workers)
			tel := telemetry.New()
			prog := obsrv.NewRunProgress(sc.name)
			cfg := faultCfg(workers)
			cfg.Telemetry = tel
			cfg.Progress = prog
			ctx, cancel := context.WithCancel(context.Background())
			sc.setup(&cfg, cancel)
			d, err := New(sc.lake(t), "base", "y", cfg)
			if err != nil {
				t.Fatal(err)
			}
			var r *Ranking
			if sc.augment {
				factory, _ := ml.FactoryByName("knn")
				res, err := d.AugmentContext(ctx, factory)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				r = res.Ranking
			} else if r, err = d.RunContext(ctx); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cancel()

			ranking := pruneJSON(t, r.Prune)
			var buf bytes.Buffer
			if err := d.Manifest(r).Write(&buf); err != nil {
				t.Fatal(err)
			}
			var manifest struct {
				Pruned map[string]int64 `json:"pruned"`
			}
			if err := json.Unmarshal(buf.Bytes(), &manifest); err != nil {
				t.Fatal(err)
			}
			snap := tel.Snapshot()
			counters := snap.Pruning()
			status := prog.Snapshot()
			for reason := range ranking {
				views := []int64{ranking[reason], manifest.Pruned[reason], counters[reason], status.Pruned[reason]}
				if views[1] != views[0] || views[2] != views[0] || views[3] != views[0] {
					t.Errorf("%s: %s disagrees: ranking=%d manifest=%d counters=%d status=%d",
						name, reason, views[0], views[1], views[2], views[3])
				}
				if views[0] > 0 {
					hit[reason] = true
				}
			}
			for _, m := range []map[string]int64{manifest.Pruned, counters, status.Pruned} {
				for reason := range m {
					if _, ok := ranking[reason]; !ok {
						t.Errorf("%s: unknown reason %q in %v", name, reason, m)
					}
				}
			}
			for _, reason := range sc.want {
				if ranking[reason] == 0 {
					t.Errorf("%s: reason %s did not fire: %+v", name, reason, r.Prune)
				}
			}
			if status.Evaluated != int64(r.PathsExplored) || status.Budgets.EvalJoinsUsed != int64(r.PathsExplored) {
				t.Errorf("%s: RunStatus evaluated %d (budget used %d), Ranking explored %d",
					name, status.Evaluated, status.Budgets.EvalJoinsUsed, r.PathsExplored)
			}
			if got := snap.Counters[telemetry.CtrPathsExplored]; got != int64(r.PathsExplored) {
				t.Errorf("%s: paths_explored counter %d, Ranking explored %d", name, got, r.PathsExplored)
			}
			if status.PathsKept != int64(len(r.Paths)) || snap.Counters[telemetry.CtrPathsKept] != int64(len(r.Paths)) {
				t.Errorf("%s: paths kept: status %d, counter %d, Ranking %d",
					name, status.PathsKept, snap.Counters[telemetry.CtrPathsKept], len(r.Paths))
			}
			wantPartial := int64(0)
			if r.Partial {
				wantPartial = 1
			}
			if got := snap.Counters[telemetry.CtrPartialRuns]; got != wantPartial {
				t.Errorf("%s: partial_runs = %d, want %d (Partial=%v)", name, got, wantPartial, r.Partial)
			}
			if status.Partial != r.Partial || status.PartialReason != r.PartialReason {
				t.Errorf("%s: RunStatus partial %v/%q, Ranking %v/%q",
					name, status.Partial, status.PartialReason, r.Partial, r.PartialReason)
			}
			got := rankingJSON(t, r)
			if first == "" {
				first = got
			} else if got != first {
				t.Errorf("%s: ranking differs from workers=1", name)
			}
		}
	}
	for _, reason := range telemetry.PruneReasons {
		if !hit[reason] {
			t.Errorf("no scenario exercised %s", reason)
		}
	}
}

// pruneJSON renders a PruneStats as the reason -> count object the
// manifest serialises.
func pruneJSON(t *testing.T, p PruneStats) map[string]int64 {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int64
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPruneStatsFollowsReasonList pins PruneStats to telemetry's one
// reason list: its fields are the reasons in list order, each JSON key is
// the reason it counts, and count addresses the matching field.
func TestPruneStatsFollowsReasonList(t *testing.T) {
	typ := reflect.TypeOf(PruneStats{})
	if typ.NumField() != len(telemetry.PruneReasons) {
		t.Fatalf("PruneStats has %d fields, telemetry lists %d reasons", typ.NumField(), len(telemetry.PruneReasons))
	}
	var p PruneStats
	v := reflect.ValueOf(&p).Elem()
	for i, reason := range telemetry.PruneReasons {
		if tag := strings.Split(typ.Field(i).Tag.Get("json"), ",")[0]; tag != reason {
			t.Errorf("field %d (%s) has JSON key %q, want %q", i, typ.Field(i).Name, tag, reason)
		}
		*p.count(reason) = i + 1
		if got := v.Field(i).Int(); got != int64(i+1) {
			t.Errorf("count(%q) does not address field %s", reason, typ.Field(i).Name)
		}
	}
	if p.Total() != 28 {
		t.Errorf("Total() = %d, want 1+2+...+7 = 28", p.Total())
	}
}

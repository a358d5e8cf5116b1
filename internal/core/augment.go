package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"autofeat/internal/errs"
	"autofeat/internal/frame"
	"autofeat/internal/ml"
	"autofeat/internal/obsrv"
	"autofeat/internal/relational"
	"autofeat/internal/telemetry"
)

// PathEval records the ML evaluation of one ranked path.
type PathEval struct {
	Path RankedPath
	Eval ml.EvalResult
}

// AugmentResult is AutoFeat's end-to-end output: the best join path, the
// fully-materialised augmented table, the features it was trained with and
// the timing split the paper reports (feature-selection time vs total).
type AugmentResult struct {
	// Best is the winning path (highest model accuracy among the top-k).
	Best PathEval
	// Table is the augmented table materialised along the best path at
	// full size (no sampling).
	Table *frame.Frame
	// Features is the trained feature set: base features plus the best
	// path's selected features.
	Features []string
	// Evaluated lists every top-k path with its model score.
	Evaluated []PathEval
	// Ranking is the discovery output the evaluation started from.
	Ranking *Ranking
	// SelectionTime is the feature-discovery wall-clock time;
	// TotalTime adds materialisation and model training on top.
	SelectionTime time.Duration
	TotalTime     time.Duration
	// Partial reports that discovery or evaluation stopped early
	// (cancellation, deadline or budget) and Best is the best of what
	// was reached, not of the full search space. The base table alone is
	// always evaluated, so Best is populated even on a fully cancelled
	// run. PartialReason carries the cause, as in Ranking.
	Partial       bool
	PartialReason string
}

// Augment runs the full AutoFeat pipeline with no external cancellation;
// it is exactly AugmentContext under context.Background(), which is the
// canonical (context-first) form.
func (d *Discovery) Augment(factory ml.Factory) (*AugmentResult, error) {
	return d.AugmentContext(context.Background(), factory)
}

// AugmentContext runs the full AutoFeat pipeline against the discovery's
// graph: discovery + ranking, then training the factory's model on each of
// the top-k paths at full table size, returning the best-accuracy path
// (Section VI, "From Ranked Paths to Training ML Models"). Cancellation
// degrades, it does not error: discovery returns its partial ranking and
// evaluation always scores at least the base table alone, so the result's
// Best is populated (and flagged Partial) even when ctx is already done.
func (d *Discovery) AugmentContext(ctx context.Context, factory ml.Factory) (*AugmentResult, error) {
	start := time.Now()
	ranking, err := d.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	res, err := d.EvaluateRankingContext(ctx, ranking, factory)
	if err != nil {
		return nil, err
	}
	res.TotalTime = time.Since(start)
	return res, nil
}

// EvaluateRanking trains the factory's model on the top-k ranked paths
// with no external cancellation; it is EvaluateRankingContext under
// context.Background().
func (d *Discovery) EvaluateRanking(ranking *Ranking, factory ml.Factory) (*AugmentResult, error) {
	return d.EvaluateRankingContext(context.Background(), ranking, factory)
}

// EvaluateRankingContext trains the factory's model on the top-k ranked
// paths of a previously computed ranking and picks the best. Exposed
// separately so harnesses can time discovery and evaluation independently
// and reuse one ranking across model families.
//
// The base-table candidate (index 0) is always evaluated, even under an
// already-cancelled context — AutoFeat's floor guarantee that augmentation
// never silently loses the un-augmented baseline. ctx is checked between
// the remaining candidates; a cancellation flags the result Partial and
// returns what was evaluated so far instead of erroring.
func (d *Discovery) EvaluateRankingContext(ctx context.Context, ranking *Ranking, factory ml.Factory) (*AugmentResult, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	res := &AugmentResult{Ranking: ranking, SelectionTime: ranking.SelectionTime}
	res.Partial, res.PartialReason = ranking.Partial, ranking.PartialReason
	base := ranking.Base

	// Candidate 0 is always the base table alone, so AutoFeat never
	// returns an augmentation that hurts the model.
	candidates := []RankedPath{{Quality: 1}}
	candidates = append(candidates, ranking.TopK(d.cfg.TopK)...)

	tr := d.cfg.Telemetry.Trace()
	prog := d.cfg.Progress
	rec := &recorder{prog: prog, mx: d.cfg.Telemetry.Meter(),
		partial: &res.Partial, reason: &res.PartialReason}
	lg := d.cfg.log()
	bestAcc := -1.0
	for i, p := range candidates {
		// The base candidate materialises without joins; detach it from
		// ctx's cancellation (keeping its trace) so the floor guarantee
		// holds even when ctx is already done.
		candCtx := ctx
		if i == 0 {
			candCtx = context.WithoutCancel(ctx)
		} else if err := ctx.Err(); err != nil {
			rec.stop(partialReason(err))
			lg.Warn("evaluation stopped early", "reason", res.PartialReason, "evaluated", len(res.Evaluated), "candidates", len(candidates))
			break
		}
		prog.SetPhase(obsrv.PhaseMaterialize)
		candCtx, matSpan := tr.StartSpan(candCtx, telemetry.SpanMaterialize)
		table, features, err := d.MaterializePathContext(candCtx, p, base)
		matSpan.SetInt("hops", len(p.Edges))
		matSpan.End()
		if err != nil {
			if errors.Is(err, errs.ErrCancelled) {
				rec.stop(partialReason(ctx.Err()))
				lg.Warn("materialisation cancelled", "reason", res.PartialReason, "evaluated", len(res.Evaluated))
				break
			}
			return nil, err
		}
		prog.SetPhase(obsrv.PhaseTrain)
		_, trainSpan := tr.StartSpan(ctx, telemetry.SpanTrainEval)
		trainSpan.SetStr("model", factory.Name)
		trainSpan.SetInt("features", len(features))
		eval, err := ml.EvaluateFrameLogged(table, features, ranking.Label, factory.New(d.cfg.Seed), d.cfg.Seed, d.cfg.Logger)
		trainSpan.End()
		if err != nil {
			return nil, err
		}
		pe := PathEval{Path: p, Eval: eval}
		res.Evaluated = append(res.Evaluated, pe)
		if eval.Accuracy > bestAcc {
			bestAcc = eval.Accuracy
			res.Best = pe
			res.Table = table
			res.Features = features
		}
	}
	res.TotalTime = ranking.SelectionTime + time.Since(start)
	prog.Finish()
	lg.Info("augmentation finished",
		"evaluated", len(res.Evaluated), "best_model", res.Best.Eval.Model,
		"best_accuracy", res.Best.Eval.Accuracy, "partial", res.Partial,
		"total_time", res.TotalTime)
	return res, nil
}

// MaterializePath joins the full base table along the path with no
// external cancellation; it is MaterializePathContext under
// context.Background().
func (d *Discovery) MaterializePath(p RankedPath, base *frame.Frame) (*frame.Frame, []string, error) {
	return d.MaterializePathContext(context.Background(), p, base)
}

// MaterializePathContext joins the full base table along the path and
// returns the augmented table plus the feature set to train with (base
// features + the path's selected features, deduplicated). ctx flows into
// every hop's join row loop; a cancellation aborts with an error wrapping
// errs.ErrCancelled.
func (d *Discovery) MaterializePathContext(ctx context.Context, p RankedPath, base *frame.Frame) (*frame.Frame, []string, error) {
	rp := make(relational.Path, len(p.Edges))
	for i, e := range p.Edges {
		to := d.g.Table(e.B)
		if to == nil {
			return nil, nil, fmt.Errorf("core: table %q vanished from graph", e.B)
		}
		rp[i] = relational.Hop{FromCol: e.A + "." + e.ColA, To: to, ToCol: e.ColB}
	}
	var joinRng *rand.Rand
	if d.cfg.NormalizeJoins {
		joinRng = rand.New(rand.NewSource(d.cfg.Seed))
	}
	table, _, err := rp.Materialize(base, relational.Options{
		Ctx:       ctx,
		Normalize: d.cfg.NormalizeJoins,
		Rng:       joinRng,
		Telemetry: d.cfg.Telemetry,
		Log:       d.cfg.Logger,
	})
	if err != nil {
		return nil, nil, err
	}
	features := make([]string, 0, len(d.baseFeaturesOf(base))+len(p.Features))
	seen := make(map[string]bool)
	for _, f := range append(d.baseFeaturesOf(base), p.Features...) {
		if !seen[f] && table.HasColumn(f) {
			seen[f] = true
			features = append(features, f)
		}
	}
	return table, features, nil
}

func (d *Discovery) baseFeaturesOf(base *frame.Frame) []string {
	out := make([]string, 0, base.NumCols()-1)
	for _, name := range base.ColumnNames() {
		if name != d.label {
			out = append(out, name)
		}
	}
	return out
}

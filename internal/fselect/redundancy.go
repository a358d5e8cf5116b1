package fselect

import (
	"autofeat/internal/stats"
)

// Redundancy filters candidate features against an already-selected set,
// keeping only those that add information. All five paper metrics derive
// from the unified conditional-likelihood-maximisation framework
// (Definition V.1, Equation (1)):
//
//	J(Xk) = I(Xk;Y) − β·Σ_{Xj∈S} I(Xj;Xk) + λ·Σ_{Xj∈S} I(Xj;Xk|Y)
//
// A candidate is accepted when J(Xk) > 0 — its relevance to the label
// outweighs its redundancy with the selected set — and accepted candidates
// immediately join S, making the evaluation a greedy streaming pass.
type Redundancy interface {
	// Name identifies the metric ("mrmr", "jmi", ...).
	Name() string
	// Select evaluates candidate columns against the selected set and
	// returns the indices of accepted candidates together with their J
	// scores, in candidate order.
	Select(candidates, selected [][]float64, y []int) ([]int, []float64)
}

// CLM is a conditional-likelihood-maximisation redundancy metric
// parameterised by the β and λ schedules of Equation (1). β and λ receive
// |S|, the current size of the selected set, because MRMR and JMI scale
// their penalty by 1/|S|.
type CLM struct {
	MetricName string
	Beta       func(sizeS int) float64
	Lambda     func(sizeS int) float64
	// Bins overrides discretisation granularity; 0 means stats.DefaultBins.
	Bins int
}

// Name implements Redundancy.
func (m CLM) Name() string { return m.MetricName }

// Select implements Redundancy via greedy Equation-(1) scoring. Every
// column is discretised, and its code range found, once per call.
func (m CLM) Select(candidates, selected [][]float64, y []int) ([]int, []float64) {
	b := bins(m.Bins)
	sel := discretizeAll(selected, b)
	yc := stats.NewCodes(y)
	var accepted []int
	var scores []float64
	var buf []int
	for ci, cand := range candidates {
		xk := stats.DiscretizeCodes(buf, cand, b)
		j := stats.CorrectedMutualInformationCodes(xk, yc)
		if len(sel) > 0 {
			beta := m.Beta(len(sel))
			lambda := m.Lambda(len(sel))
			for _, xj := range sel {
				if beta != 0 {
					j -= beta * stats.CorrectedMutualInformationCodes(xj, xk)
				}
				if lambda != 0 {
					j += lambda * stats.CorrectedConditionalMutualInformationCodes(xj, xk, yc)
				}
			}
		}
		buf = xk.Ints()
		if j > 0 {
			accepted = append(accepted, ci)
			scores = append(scores, j)
			sel = append(sel, xk)
			buf = nil // xk stays in sel; the next candidate needs its own
		}
	}
	return accepted, scores
}

// CMIM implements Conditional Mutual Information Maximization, the special
// case of the framework (Equation (2)):
//
//	J(Xk) = I(Xk;Y) − max_{Xj∈S} [ I(Xj;Xk) − I(Xj;Xk|Y) ]
type CMIM struct {
	// Bins overrides discretisation granularity; 0 means stats.DefaultBins.
	Bins int
}

// Name implements Redundancy.
func (CMIM) Name() string { return "cmim" }

// Select implements Redundancy. Like CLM.Select it discretises each
// column, and finds its code range, once per call.
func (m CMIM) Select(candidates, selected [][]float64, y []int) ([]int, []float64) {
	b := bins(m.Bins)
	sel := discretizeAll(selected, b)
	yc := stats.NewCodes(y)
	var accepted []int
	var scores []float64
	var buf []int
	for ci, cand := range candidates {
		xk := stats.DiscretizeCodes(buf, cand, b)
		j := stats.CorrectedMutualInformationCodes(xk, yc)
		maxPenalty := 0.0
		for _, xj := range sel {
			p := stats.CorrectedMutualInformationCodes(xj, xk) - stats.CorrectedConditionalMutualInformationCodes(xj, xk, yc)
			if p > maxPenalty {
				maxPenalty = p
			}
		}
		j -= maxPenalty
		buf = xk.Ints()
		if j > 0 {
			accepted = append(accepted, ci)
			scores = append(scores, j)
			sel = append(sel, xk)
			buf = nil
		}
	}
	return accepted, scores
}

func discretizeAll(cols [][]float64, b int) []stats.Codes {
	out := make([]stats.Codes, len(cols))
	for i, c := range cols {
		out[i] = stats.DiscretizeCodes(nil, c, b)
	}
	return out
}

// NewMIFS returns Mutual Information Feature Selection: β = 0.5
// (the paper's choice), λ = 0.
func NewMIFS() Redundancy {
	return CLM{
		MetricName: "mifs",
		Beta:       func(int) float64 { return 0.5 },
		Lambda:     func(int) float64 { return 0 },
	}
}

// NewMRMR returns Minimum Redundancy Maximum Relevance: β = 1/|S|, λ = 0.
// MRMR is the redundancy metric AutoFeat adopts (Section V-D).
func NewMRMR() Redundancy {
	return CLM{
		MetricName: "mrmr",
		Beta:       func(s int) float64 { return 1 / float64(s) },
		Lambda:     func(int) float64 { return 0 },
	}
}

// NewCIFE returns Conditional Infomax Feature Extraction: β = 1, λ = 1.
func NewCIFE() Redundancy {
	return CLM{
		MetricName: "cife",
		Beta:       func(int) float64 { return 1 },
		Lambda:     func(int) float64 { return 1 },
	}
}

// NewJMI returns Joint Mutual Information: β = 1/|S|, λ = 1/|S|.
func NewJMI() Redundancy {
	return CLM{
		MetricName: "jmi",
		Beta:       func(s int) float64 { return 1 / float64(s) },
		Lambda:     func(s int) float64 { return 1 / float64(s) },
	}
}

// NewCMIM returns Conditional Mutual Information Maximization (Eq. (2)).
func NewCMIM() Redundancy { return CMIM{} }

// RedundancyByName returns the metric registered under name, or nil.
// Names: mifs, mrmr, cife, jmi, cmim.
func RedundancyByName(name string) Redundancy {
	switch name {
	case "mifs":
		return NewMIFS()
	case "mrmr":
		return NewMRMR()
	case "cife":
		return NewCIFE()
	case "jmi":
		return NewJMI()
	case "cmim":
		return NewCMIM()
	default:
		return nil
	}
}

// AllRedundancy lists the five Section V-D redundancy metrics in paper
// order.
func AllRedundancy() []Redundancy {
	return []Redundancy{NewMIFS(), NewMRMR(), NewCIFE(), NewJMI(), NewCMIM()}
}

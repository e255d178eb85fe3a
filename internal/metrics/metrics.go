// Package metrics implements the evaluation measures of §5: precision /
// recall / F1 for anomaly detection (Fig. 8), Recall@k and Exam Score for
// root cause localization (Table 1), and CDF helpers for the utilization
// study (Fig. 2).
package metrics

import (
	"fmt"
	"sort"
)

// Confusion tallies binary classification outcomes.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction against ground truth.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func (c Confusion) String() string {
	return fmt.Sprintf("P=%.2f R=%.2f F1=%.2f (tp=%d fp=%d tn=%d fn=%d)",
		c.Precision(), c.Recall(), c.F1(), c.TP, c.FP, c.TN, c.FN)
}

// RankResult is the outcome of one localization trial: the 1-based rank at
// which the true root cause appeared in the culprit list, or 0 if absent.
type RankResult struct {
	Rank int
}

// ExamDefaultPenalty is the paper's convention: "if the root cause is out
// of Top-5, we set a default 10 false positive causes before it".
const ExamDefaultPenalty = 10

// ExamScore returns the number of false positives an operator must discard
// before reaching the root cause in this trial.
func (r RankResult) ExamScore() float64 {
	if r.Rank >= 1 && r.Rank <= 5 {
		return float64(r.Rank - 1)
	}
	return ExamDefaultPenalty
}

// Localization aggregates rank results across trials.
type Localization struct {
	Results []RankResult
}

// Add records one trial.
func (l *Localization) Add(rank int) {
	l.Results = append(l.Results, RankResult{Rank: rank})
}

// RecallAt returns the fraction of trials whose root cause ranked within
// the top k.
func (l *Localization) RecallAt(k int) float64 {
	if len(l.Results) == 0 {
		return 0
	}
	hit := 0
	for _, r := range l.Results {
		if r.Rank >= 1 && r.Rank <= k {
			hit++
		}
	}
	return float64(hit) / float64(len(l.Results))
}

// MeanExamScore averages the per-trial exam scores.
func (l *Localization) MeanExamScore() float64 {
	if len(l.Results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range l.Results {
		sum += r.ExamScore()
	}
	return sum / float64(len(l.Results))
}

// Trials returns the number of recorded trials.
func (l *Localization) Trials() int { return len(l.Results) }

// Merge appends another aggregate's trials (for the Overall row).
func (l *Localization) Merge(o *Localization) {
	l.Results = append(l.Results, o.Results...)
}

// CDF computes the empirical distribution of values: Quantile(q) and the
// sorted sample for plotting.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the sample.
func NewCDF(values []float64) *CDF {
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Quantile returns the q-th empirical quantile (q in [0,1]).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := q * float64(len(c.sorted)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(c.sorted) {
		return c.sorted[lo]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	n := sort.SearchFloat64s(c.sorted, x)
	// include equal values
	for n < len(c.sorted) && c.sorted[n] <= x {
		n++
	}
	return float64(n) / float64(len(c.sorted))
}

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	var sum float64
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Package stats implements the descriptive statistics the evaluation harness
// reports: means, percentiles, box-plot summaries (the paper's per-hour
// throughput figures are box plots), and empirical CDFs (traffic occupancy,
// synchronization accuracy, LTE-impact figures).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN for an empty slice.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the extrema of xs. It panics on an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. xs need not be sorted. It panics on an
// empty slice or p outside [0,100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic("stats: percentile out of [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary holds the five-number summary plus moments for a sample. The JSON
// field names are part of the serving API's determinism contract (see
// internal/serve): two runs that produce the same sample values marshal to
// identical bytes.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	Max    float64 `json:"max"`
}

// Summarize computes a Summary of xs. It panics on an empty slice.
func Summarize(xs []float64) Summary {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Std:    Std(xs),
		Min:    lo,
		P25:    percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		P75:    percentileSorted(sorted, 75),
		Max:    hi,
	}
}

// Aggregate accumulates samples one at a time for per-run metric
// aggregation: a consumer that sees values arrive out of order (a worker
// pool completing tags, a server folding per-job metrics) adds each sample
// as it lands and asks for the Summary at the end. The result depends only
// on the multiset of added values, never on arrival order.
type Aggregate struct {
	xs []float64
}

// Add folds one sample into the aggregate.
func (a *Aggregate) Add(x float64) { a.xs = append(a.xs, x) }

// Summary computes the five-number summary of the added samples. The
// computation runs over a sorted copy, so every field — including the
// order-sensitive floating-point Mean — is bit-identical for any insertion
// order. It panics when no samples have been added (matching Summarize).
func (a *Aggregate) Summary() Summary {
	xs := append([]float64(nil), a.xs...)
	sort.Float64s(xs)
	return Summarize(xs)
}

// Box is a Tukey box-plot summary: quartiles, whiskers at the last data point
// within 1.5 IQR of the box, and the points beyond the whiskers.
type Box struct {
	Q1, Median, Q3      float64
	WhiskLow, WhiskHigh float64
	Outliers            []float64
}

// BoxPlot computes a Tukey box plot of xs. It panics on an empty slice.
func BoxPlot(xs []float64) Box {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	b := Box{
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskLow, b.WhiskHigh = b.Q3, b.Q1
	for _, x := range sorted {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if x < b.WhiskLow {
			b.WhiskLow = x
		}
		if x > b.WhiskHigh {
			b.WhiskHigh = x
		}
	}
	// Whiskers extend outward from the box; with tiny samples the
	// interpolated quartile can overshoot the last in-fence data point, so
	// clamp the whiskers to the box edges.
	if b.WhiskLow > b.Q1 {
		b.WhiskLow = b.Q1
	}
	if b.WhiskHigh < b.Q3 {
		b.WhiskHigh = b.Q3
	}
	return b
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples. It panics on an empty slice.
func NewCDF(samples []float64) *CDF {
	if len(samples) == 0 {
		panic("stats: NewCDF of empty slice")
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we want
	// the count of values <= x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value q with P(X <= q) >= p, p in (0,1].
func (c *CDF) Quantile(p float64) float64 {
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// QFunc is the Gaussian tail probability Q(x) = P(N(0,1) > x). It is used to
// map post-equalization SNR to analytic BER in the semi-analytic link mode.
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// BERFromSNR returns the BPSK bit error probability at the given linear SNR
// (Eb/N0). The LScatter per-unit phase decision is binary, so BPSK applies.
func BERFromSNR(snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	return QFunc(math.Sqrt(2 * snr))
}

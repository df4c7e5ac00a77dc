package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"lscatter/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanSimple(t *testing.T) {
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", m)
	}
}

func TestMeanEmptyIsNaN(t *testing.T) {
	if m := Mean(nil); !math.IsNaN(m) {
		t.Fatalf("Mean(nil) = %v, want NaN", m)
	}
}

func TestVarianceAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if v := Variance(xs); !almostEqual(v, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", v)
	}
	if s := Std(xs); !almostEqual(s, 2, 1e-12) {
		t.Fatalf("Std = %v, want 2", s)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = (%v, %v), want (-1, 7)", lo, hi)
	}
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileUnsortedInputUnchanged(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	_ = Percentile(xs, 50)
	want := []float64{5, 1, 4, 2, 3}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatal("Percentile mutated its input")
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if s.N != 8 || s.Min != 1 || s.Max != 8 {
		t.Fatalf("Summary extrema wrong: %+v", s)
	}
	if !almostEqual(s.Median, 4.5, 1e-12) {
		t.Fatalf("Summary median = %v, want 4.5", s.Median)
	}
}

func TestBoxPlotDetectsOutliers(t *testing.T) {
	xs := []float64{10, 11, 12, 13, 14, 15, 16, 100}
	b := BoxPlot(xs)
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("BoxPlot outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskHigh != 16 {
		t.Fatalf("upper whisker = %v, want 16", b.WhiskHigh)
	}
	if b.WhiskLow != 10 {
		t.Fatalf("lower whisker = %v, want 10", b.WhiskLow)
	}
}

func TestBoxPlotNoOutliers(t *testing.T) {
	b := BoxPlot([]float64{1, 2, 3, 4, 5})
	if len(b.Outliers) != 0 {
		t.Fatalf("unexpected outliers: %v", b.Outliers)
	}
	if b.WhiskLow != 1 || b.WhiskHigh != 5 {
		t.Fatalf("whiskers = (%v, %v), want (1, 5)", b.WhiskLow, b.WhiskHigh)
	}
}

func TestCDFMonotone(t *testing.T) {
	r := rng.New(5)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	c := NewCDF(xs)
	prev := -1.0
	for x := -4.0; x <= 4.0; x += 0.1 {
		p := c.At(x)
		if p < prev {
			t.Fatalf("CDF decreased at x=%v: %v < %v", x, p, prev)
		}
		if p < 0 || p > 1 {
			t.Fatalf("CDF out of [0,1]: %v", p)
		}
		prev = p
	}
	if c.At(math.Inf(1)) != 1 {
		t.Fatal("CDF at +inf != 1")
	}
	if c.At(math.Inf(-1)) != 0 {
		t.Fatal("CDF at -inf != 0")
	}
}

func TestCDFQuantileInverse(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	c := NewCDF(xs)
	for _, p := range []float64{0.1, 0.5, 0.9, 1.0} {
		q := c.Quantile(p)
		if got := c.At(q); got < p-1e-9 {
			t.Errorf("At(Quantile(%v)) = %v < %v", p, got, p)
		}
	}
}

func TestQFuncKnownValues(t *testing.T) {
	// Q(0)=0.5, Q(1.96)~0.025, Q(-inf)=1
	if q := QFunc(0); !almostEqual(q, 0.5, 1e-12) {
		t.Fatalf("Q(0) = %v", q)
	}
	if q := QFunc(1.959964); !almostEqual(q, 0.025, 1e-4) {
		t.Fatalf("Q(1.96) = %v, want ~0.025", q)
	}
}

func TestBERFromSNRShape(t *testing.T) {
	if b := BERFromSNR(0); b != 0.5 {
		t.Fatalf("BER at zero SNR = %v, want 0.5", b)
	}
	// BPSK at 9.6 dB Eb/N0 has BER ~1e-5
	snr := math.Pow(10, 9.6/10)
	if b := BERFromSNR(snr); b > 2e-5 || b < 2e-6 {
		t.Fatalf("BER at 9.6 dB = %v, want ~1e-5", b)
	}
	// monotone decreasing
	prev := 1.0
	for s := 0.1; s < 100; s *= 2 {
		b := BERFromSNR(s)
		if b >= prev {
			t.Fatalf("BER not monotone at snr=%v", s)
		}
		prev = b
	}
}

func TestPercentileMatchesCDFQuantileProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(200) + 5
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		med := Median(xs)
		c := NewCDF(xs)
		// At least half the mass lies at or below the median.
		return c.At(med) >= 0.5-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxPlotQuartilesOrdered(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(100) + 4
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		b := BoxPlot(xs)
		return b.Q1 <= b.Median && b.Median <= b.Q3 &&
			b.WhiskLow <= b.Q1 && b.Q3 <= b.WhiskHigh
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateMatchesSummarize(t *testing.T) {
	r := rng.New(11)
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = r.NormFloat64() * 50
	}
	var a Aggregate
	for _, x := range xs {
		a.Add(x)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if got, want := a.Summary(), Summarize(sorted); got != want {
		t.Fatalf("Aggregate summary %+v != Summarize %+v", got, want)
	}
}

func TestAggregateOrderIndependent(t *testing.T) {
	r := rng.New(5)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	// Add the samples in interleaved order (every third sample, three
	// passes): the summary must equal the sequential pass bit for bit.
	var sequential, interleaved Aggregate
	for _, x := range xs {
		sequential.Add(x)
	}
	for _, start := range []int{2, 0, 1} {
		for i := start; i < len(xs); i += 3 {
			interleaved.Add(xs[i])
		}
	}
	if got, want := interleaved.Summary(), sequential.Summary(); got != want {
		t.Fatalf("interleaved summary %+v != sequential %+v", got, want)
	}
}

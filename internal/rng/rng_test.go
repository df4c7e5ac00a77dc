package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/1000 times", same)
	}
}

func TestZeroSeedIsUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 produced repeated outputs: %d unique of 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("exponential variate negative: %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Errorf("Intn(10) value %d count %d, want ~10000", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestComplexVariance(t *testing.T) {
	r := New(19)
	const n = 100000
	var power float64
	for i := 0; i < n; i++ {
		c := r.Complex(1 / math.Sqrt2) // unit total power
		power += real(c)*real(c) + imag(c)*imag(c)
	}
	if p := power / n; math.Abs(p-1) > 0.03 {
		t.Fatalf("complex sample power = %v, want ~1", p)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(23)
	a := parent.Fork(1)
	b := parent.Fork(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams collided %d/1000 times", same)
	}
}

func TestBitsAreFair(t *testing.T) {
	r := New(29)
	buf := make([]byte, 100000)
	r.Bits(buf)
	ones := 0
	for _, b := range buf {
		if b > 1 {
			t.Fatalf("Bits produced non-bit value %d", b)
		}
		ones += int(b)
	}
	if ones < 49000 || ones > 51000 {
		t.Fatalf("ones = %d of 100000, want ~50000", ones)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.NormFloat64()
	}
	_ = sink
}

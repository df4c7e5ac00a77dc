package channel

import (
	"math"
	"testing"

	"lscatter/internal/impair"
	"lscatter/internal/rng"
)

// mustPanic runs f and reports whether it panicked.
func mustPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return
}

func TestPowerConversionEdgeCases(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name  string
		f     func() float64
		want  float64 // ignored when panics
		panic bool
	}{
		{"DBmToWatts(0)", func() float64 { return DBmToWatts(0) }, 1e-3, false},
		{"DBmToWatts(-Inf)", func() float64 { return DBmToWatts(-inf) }, 0, false},
		{"DBmToWatts(+Inf)", func() float64 { return DBmToWatts(inf) }, inf, false},
		{"DBmToWatts(NaN)", func() float64 { return DBmToWatts(math.NaN()) }, 0, true},
		{"NoiseFloorW(0, 7)", func() float64 { return NoiseFloorW(0, 7) }, 0, true},
		{"NoiseFloorW(-1e6, 7)", func() float64 { return NoiseFloorW(-1e6, 7) }, 0, true},
		{"NoiseFloorW(+Inf, 7)", func() float64 { return NoiseFloorW(inf, 7) }, 0, true},
		{"NoiseFloorW(NaN, 7)", func() float64 { return NoiseFloorW(math.NaN(), 7) }, 0, true},
		{"NoiseFloorW(1e6, NaN)", func() float64 { return NoiseFloorW(1e6, math.NaN()) }, 0, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.panic {
				if !mustPanic(func() { tc.f() }) {
					t.Fatal("expected panic, got none")
				}
				return
			}
			got := tc.f()
			if math.IsInf(tc.want, 0) || tc.want == 0 {
				if got != tc.want {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
				return
			}
			if math.Abs(got-tc.want) > 1e-12*math.Abs(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestPathLossRejectsNaNDistance(t *testing.T) {
	pl := PathLoss{FreqHz: 680e6, Exponent: 2}
	if !mustPanic(func() { pl.LossDB(math.NaN()) }) {
		t.Fatal("NaN distance accepted")
	}
}

func TestAWGNRejectsInvalidPower(t *testing.T) {
	x := make([]complex128, 16)
	for _, p := range []float64{-1e-9, math.NaN(), math.Inf(1)} {
		if !mustPanic(func() { AWGN(rng.New(1), x, p) }) {
			t.Fatalf("noise power %v accepted", p)
		}
	}
}

func TestLinkWithoutImpairmentMatchesCombine(t *testing.T) {
	// A Link with no impairment must be Combine to the bit: same RNG draws,
	// same output, so wiring a Link into an existing chain is a no-op.
	r := rng.New(31)
	a := make([]complex128, 512)
	b := make([]complex128, 512)
	for i := range a {
		a[i] = r.Complex(1)
		b[i] = r.Complex(0.5)
	}
	want := Combine(rng.New(42), 1e-6, a, b)
	got := NewLink(rng.New(42), 1e-6).Receive(a, b)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("sample %d: link %v != combine %v", i, got[i], want[i])
		}
	}
	inert := NewLink(rng.New(42), 1e-6, WithImpairment(impair.New(impair.Config{}))).Receive(a, b)
	for i := range want {
		if want[i] != inert[i] {
			t.Fatalf("sample %d: inert-pipeline link diverged", i)
		}
	}
}

func TestLinkAppliesImpairment(t *testing.T) {
	r := rng.New(33)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = r.Complex(1)
	}
	cfg := impair.Config{
		Seed:       5,
		SampleRate: 1.92e6,
		CFO:        impair.CFOConfig{Enabled: true, OffsetHz: 900},
	}
	l := NewLink(rng.New(42), 0, WithImpairment(impair.New(cfg)))
	got := l.Receive(x)
	if l.Impairment() == nil {
		t.Fatal("Impairment accessor lost the pipeline")
	}
	clean := Combine(rng.New(42), 0, x)
	same := 0
	for i := range got {
		if got[i] == clean[i] {
			same++
		}
	}
	if same > len(got)/10 {
		t.Fatalf("CFO-impaired link left %d/%d samples untouched", same, len(got))
	}
	// Determinism: a second identical link reproduces the stream.
	l2 := NewLink(rng.New(42), 0, WithImpairment(impair.New(cfg)))
	got2 := l2.Receive(x)
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("sample %d not reproducible", i)
		}
	}
}

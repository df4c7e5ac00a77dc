package ltephy

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestPSSConstantAmplitude(t *testing.T) {
	for nid2 := 0; nid2 < 3; nid2++ {
		for i, v := range PSS(nid2) {
			if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
				t.Fatalf("NID2 %d: |PSS[%d]| = %v, want 1 (CAZAC)", nid2, i, cmplx.Abs(v))
			}
		}
	}
}

func TestPSSLength(t *testing.T) {
	if len(PSS(0)) != 62 {
		t.Fatalf("PSS length %d, want 62", len(PSS(0)))
	}
}

func TestPSSRootsDistinct(t *testing.T) {
	// Cross-correlation between different roots must be low relative to the
	// autocorrelation peak (62).
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			pa, pb := PSS(a), PSS(b)
			var acc complex128
			for i := range pa {
				acc += pa[i] * complex(real(pb[i]), -imag(pb[i]))
			}
			// Root pairs with gcd(|u1-u2|, 63) > 1 (25 vs 34) do not have the
			// flat sqrt(63) cross-correlation, so allow up to half the peak.
			if cmplx.Abs(acc) > 31 {
				t.Errorf("PSS roots %d,%d cross-correlation %v too high", a, b, cmplx.Abs(acc))
			}
		}
	}
}

func TestPSSInvalidRootPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PSS(3) did not panic")
		}
	}()
	PSS(3)
}

func TestSSSBipolarAndLength(t *testing.T) {
	d := SSS(5, 1, 0)
	if len(d) != 62 {
		t.Fatalf("SSS length %d, want 62", len(d))
	}
	for i, v := range d {
		if v != 1 && v != -1 {
			t.Fatalf("SSS[%d] = %v, want ±1", i, v)
		}
	}
}

func TestSSSSubframeDistinguishable(t *testing.T) {
	// The subframe-0 and subframe-5 sequences of the same cell must differ:
	// that is how a UE resolves 5 ms timing ambiguity.
	a := SSS(10, 2, 0)
	b := SSS(10, 2, 5)
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff < 10 {
		t.Fatalf("SSS subframe sequences nearly identical (%d differing chips)", diff)
	}
}

func TestSSSCellsDistinguishable(t *testing.T) {
	seen := map[string]int{}
	for nid1 := 0; nid1 < 168; nid1 += 7 {
		d := SSS(nid1, 0, 0)
		key := ""
		for _, v := range d {
			if v > 0 {
				key += "1"
			} else {
				key += "0"
			}
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("NID1 %d and %d share an SSS sequence", prev, nid1)
		}
		seen[key] = nid1
	}
}

func TestSSSPanicsOnBadSubframe(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SSS in subframe 3 did not panic")
		}
	}()
	SSS(0, 0, 3)
}

func TestPSSTimeDomainUnitPower(t *testing.T) {
	p := DefaultParams(BW1_4)
	ref := pssTimeDomain(p)
	if len(ref) != p.BW.FFTSize()*p.Oversample {
		t.Fatalf("PSS reference length %d", len(ref))
	}
	var e float64
	for _, v := range ref {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	if p := e / float64(len(ref)); math.Abs(p-1) > 1e-9 {
		t.Fatalf("PSS reference power = %v, want 1", p)
	}
}

func TestPSSTimeDomainGoodAutocorrelation(t *testing.T) {
	// The PSS is the UE's timing anchor: its aperiodic autocorrelation must
	// have a dominant peak at zero lag.
	p := DefaultParams(BW1_4)
	ref := pssTimeDomain(p)
	n := len(ref)
	peak := 0.0
	var worst float64
	for lag := 0; lag < n/2; lag += 7 {
		var acc complex128
		for i := 0; i+lag < n; i++ {
			acc += ref[i+lag] * complex(real(ref[i]), -imag(ref[i]))
		}
		v := cmplx.Abs(acc)
		if lag == 0 {
			peak = v
		} else if v > worst {
			worst = v
		}
	}
	if worst > 0.35*peak {
		t.Fatalf("PSS sidelobe %v of peak %v too high", worst, peak)
	}
}

func TestPSSBandwidthConstant(t *testing.T) {
	// The paper leans on the PSS occupying the same 0.93 MHz regardless of
	// channel bandwidth.
	if math.Abs(PSSBandwidth-0.93e6) > 0.01e6 {
		t.Fatalf("PSS bandwidth = %v, want ~0.93 MHz", PSSBandwidth)
	}
}

// pssTimeDomain returns one CP-free OFDM symbol of the PSS at the given
// oversampling factor, unit average power over the active samples: the
// time-domain reference the PSS tests correlate against.
func pssTimeDomain(p Params) []complex128 {
	n := p.BW.FFTSize() * p.Oversample
	freq := make([]complex128, n)
	seq := PSS(p.NID2())
	placeCentered(freq, seq, n)
	out := make([]complex128, n)
	planInverse(out, freq)
	// normalize to unit average power
	var e float64
	for _, v := range out {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	if e > 0 {
		g := complex(math.Sqrt(float64(n)/e), 0)
		for i := range out {
			out[i] *= g
		}
	}
	return out
}

// placeCentered maps a centered sequence of even length L onto FFT bins of an
// n-point spectrum: elements 0..L/2-1 to negative bins -L/2..-1 and elements
// L/2..L-1 to positive bins 1..L/2 (DC skipped), matching the LTE PSS/SSS
// mapping k = n - 31 around the carrier center.
func placeCentered(freq []complex128, seq []complex128, n int) {
	l := len(seq)
	half := l / 2
	for i := 0; i < half; i++ {
		bin := i - half // negative
		freq[(bin+n)%n] = seq[i]
	}
	for i := half; i < l; i++ {
		bin := i - half + 1 // positive, skipping DC
		freq[bin] = seq[i]
	}
}

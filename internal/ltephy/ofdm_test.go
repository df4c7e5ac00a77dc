package ltephy

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"lscatter/internal/dsp"
	"lscatter/internal/modem"
	"lscatter/internal/rng"
)

// fullGrid builds a subframe grid with sync, reference and random QPSK data.
func fullGrid(t testing.TB, p Params, subframe int, seed uint64) *Grid {
	t.Helper()
	g := NewGrid(p, subframe)
	g.MapSyncAndRef()
	r := rng.New(seed)
	ctrl := modem.Map(modem.QPSK, r.Bits(make([]byte, 2*2*g.K())))
	g.MapControl(ctrl)
	data := modem.Map(modem.QPSK, r.Bits(make([]byte, 2*g.DataCapacity())))
	g.MapData(data)
	return g
}

func TestModulateLength(t *testing.T) {
	for _, bw := range []Bandwidth{BW1_4, BW5} {
		p := DefaultParams(bw)
		g := fullGrid(t, p, 0, 1)
		x := Modulate(g)
		want := p.Oversample * bw.SamplesPerSubframe()
		if len(x) != want {
			t.Fatalf("%v: modulated length %d, want %d", bw, len(x), want)
		}
	}
}

func TestOFDMRoundTrip(t *testing.T) {
	for _, bw := range []Bandwidth{BW1_4, BW3} {
		p := DefaultParams(bw)
		for _, sf := range []int{0, 1, 5} {
			g := fullGrid(t, p, sf, uint64(sf)+10)
			x := Modulate(g)
			got, err := Demodulate(p, x, sf)
			if err != nil {
				t.Fatal(err)
			}
			for l := range g.RE {
				for k := range g.RE[l] {
					if cmplx.Abs(got.RE[l][k]-g.RE[l][k]) > 1e-9 {
						t.Fatalf("%v sf%d: RE(%d,%d) = %v, want %v", bw, sf, l, k, got.RE[l][k], g.RE[l][k])
					}
				}
			}
		}
	}
}

func TestOFDMRoundTripProperty(t *testing.T) {
	check := func(seed uint64) bool {
		p := DefaultParams(BW1_4)
		sf := int(seed % 10)
		g := fullGrid(t, p, sf, seed)
		x := Modulate(g)
		got, err := Demodulate(p, x, sf)
		if err != nil {
			return false
		}
		for l := range g.RE {
			for k := range g.RE[l] {
				if cmplx.Abs(got.RE[l][k]-g.RE[l][k]) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestOFDMRoundTripOddOversample(t *testing.T) {
	p := DefaultParams(BW1_4)
	p.Oversample = 3
	g := fullGrid(t, p, 1, 77)
	x := Modulate(g)
	got, err := Demodulate(p, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	for l := range g.RE {
		for k := range g.RE[l] {
			if cmplx.Abs(got.RE[l][k]-g.RE[l][k]) > 1e-8 {
				t.Fatalf("oversample 3 roundtrip failed at (%d,%d)", l, k)
			}
		}
	}
}

func TestCyclicPrefixIsCopyOfTail(t *testing.T) {
	p := DefaultParams(BW1_4)
	g := fullGrid(t, p, 2, 5)
	x := Modulate(g)
	n := p.BW.FFTSize() * p.Oversample
	for l := 0; l < SymbolsPerSubframe; l++ {
		start := SymbolStart(p, l)
		cp := p.BW.CPLen(l%SymbolsPerSlot) * p.Oversample
		for i := 0; i < cp; i++ {
			if cmplx.Abs(x[start+i]-x[start+cp+n-cp+i]) > 1e-12 {
				t.Fatalf("symbol %d: CP sample %d is not a copy of the tail", l, i)
			}
		}
	}
}

func TestModulatePowerNormalization(t *testing.T) {
	p := DefaultParams(BW5)
	p.PSSBoostDB = 0
	g := fullGrid(t, p, 1, 9)
	x := Modulate(g)
	pw := dsp.Power(x)
	// Data grids are mostly full QPSK, so average power should be near 1
	// (sparse CRS-only symbols pull it slightly below).
	if pw < 0.5 || pw > 1.5 {
		t.Fatalf("modulated power = %v, want ~1", pw)
	}
}

func TestModulatedSpectrumConfined(t *testing.T) {
	// Energy outside the occupied bandwidth must be negligible: this is what
	// lets the backscatter shift to fc + 1/Ts avoid the original signal.
	p := DefaultParams(BW1_4)
	g := fullGrid(t, p, 1, 4)
	x := Modulate(g)
	n := p.BW.FFTSize() * p.Oversample
	seg := append([]complex128(nil), x[p.Oversample*p.BW.CPLen(0):][:n]...)
	spec := dsp.FFT(seg)
	k := p.BW.Subcarriers()
	var inBand, outBand float64
	for bin := 0; bin < n; bin++ {
		f := bin
		if f > n/2 {
			f -= n
		}
		pw := real(spec[bin])*real(spec[bin]) + imag(spec[bin])*imag(spec[bin])
		if f >= -k/2 && f <= k/2 {
			inBand += pw
		} else {
			outBand += pw
		}
	}
	if outBand > 1e-15*inBand {
		t.Fatalf("out-of-band energy ratio %v, want ~0", outBand/inBand)
	}
}

func TestDemodulateShortInput(t *testing.T) {
	p := DefaultParams(BW1_4)
	if _, err := Demodulate(p, make([]complex128, 10), 0); err == nil {
		t.Fatal("Demodulate accepted short input")
	}
}

func TestSymbolStartConsistency(t *testing.T) {
	p := DefaultParams(BW20)
	if SymbolStart(p, 0) != 0 {
		t.Fatal("symbol 0 start != 0")
	}
	// Symbol starts are strictly increasing and end at the subframe length.
	prev := -1
	for l := 0; l < SymbolsPerSubframe; l++ {
		s := SymbolStart(p, l)
		if s <= prev {
			t.Fatalf("symbol %d start %d not increasing", l, s)
		}
		prev = s
	}
	total := SymbolStart(p, SymbolsPerSubframe-1) + p.UnitsPerSymbol(6)*p.Oversample
	if total != p.Oversample*p.BW.SamplesPerSubframe() {
		t.Fatalf("symbol starts don't tile the subframe: %d vs %d", total, p.Oversample*p.BW.SamplesPerSubframe())
	}
}

func TestUsefulStartSkipsCP(t *testing.T) {
	p := DefaultParams(BW20)
	if got, want := UsefulStart(p, 0), 160*p.Oversample; got != want {
		t.Fatalf("useful start of symbol 0 = %d, want %d", got, want)
	}
}

func TestPSSDetectableInModulatedSubframe(t *testing.T) {
	// Correlating the PSS time reference against a full modulated subframe 0
	// must peak at the PSS symbol's useful-part start.
	p := DefaultParams(BW1_4)
	g := fullGrid(t, p, 0, 21)
	x := Modulate(g)
	lag, peak := normalizedCorrPeak(x, pssTimeDomain(p))
	want := UsefulStart(p, PSSSymbolIndex)
	if lag != want {
		t.Fatalf("PSS correlation peak at %d, want %d (peak %v)", lag, want, peak)
	}
	if peak < 0.5 {
		t.Fatalf("PSS correlation peak %v too weak", peak)
	}
}

// normalizedCorrPeak returns the lag and the normalized magnitude (0..1) of
// the best match of ref inside x: each lag of the direct correlation is
// divided by the energies of ref and of the stream segment under it, so
// amplitude does not bias the match.
func normalizedCorrPeak(x, ref []complex128) (lag int, peak float64) {
	refE := dsp.Energy(ref)
	for l, c := range dsp.CrossCorrelate(x, ref) {
		den := math.Sqrt(dsp.Energy(x[l:l+len(ref)]) * refE)
		if den > 0 && cmplx.Abs(c)/den > peak {
			lag, peak = l, cmplx.Abs(c)/den
		}
	}
	return lag, peak
}

func TestMath(t *testing.T) {
	// Guard against accidental edits to binOf: it must be a bijection from
	// grid indices to non-DC bins symmetric around 0.
	k, n := 72, 512
	seen := map[int]bool{}
	for kk := 0; kk < k; kk++ {
		bin := binOf(kk, k, n)
		if bin == 0 {
			t.Fatal("grid index mapped to DC bin")
		}
		if seen[bin] {
			t.Fatalf("bin %d mapped twice", bin)
		}
		seen[bin] = true
		f := bin
		if f > n/2 {
			f -= n
		}
		if f < -k/2 || f > k/2 {
			t.Fatalf("bin %d (freq %d) outside ±%d", bin, f, k/2)
		}
	}
	if math.Abs(float64(len(seen)-k)) > 0 {
		t.Fatal("binOf not a bijection")
	}
}

func BenchmarkModulateSubframe5MHz(b *testing.B) {
	p := DefaultParams(BW5)
	g := fullGrid(b, p, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Modulate(g)
	}
}

func BenchmarkDemodulateSubframe5MHz(b *testing.B) {
	p := DefaultParams(BW5)
	g := fullGrid(b, p, 1, 1)
	x := Modulate(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Demodulate(p, x, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOFDMRoundTrip15MHzBluestein(t *testing.T) {
	// 15 MHz is the only LTE bandwidth whose FFT size (1536) is not a power
	// of two: this exercises the Bluestein path through the whole
	// modulate/demodulate chain.
	if testing.Short() {
		t.Skip("bluestein roundtrip is slow")
	}
	p := DefaultParams(BW15)
	p.Oversample = 2
	g := fullGrid(t, p, 0, 15)
	x := Modulate(g)
	got, err := Demodulate(p, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	var maxE float64
	for l := range g.RE {
		for k := range g.RE[l] {
			if e := cmplx.Abs(got.RE[l][k] - g.RE[l][k]); e > maxE {
				maxE = e
			}
		}
	}
	if maxE > 1e-7 {
		t.Fatalf("15 MHz roundtrip error %v", maxE)
	}
}

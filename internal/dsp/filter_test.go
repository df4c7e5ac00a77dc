package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"lscatter/internal/rng"
)

func tone(freq, sampleRate float64, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*freq*float64(i)/sampleRate))
	}
	return x
}

func TestLowPassFIRPassbandAndStopband(t *testing.T) {
	const fs = 1e6
	fir := LowPassFIR(100e3, fs, 101)
	// Passband tone at 20 kHz should pass nearly unattenuated.
	pass := fir.Process(tone(20e3, fs, 4000))
	pb := Power(pass[500:]) // skip transient
	if pb < 0.95 || pb > 1.05 {
		t.Errorf("passband power = %v, want ~1", pb)
	}
	fir.Reset()
	// Stopband tone at 400 kHz should be heavily attenuated.
	stop := fir.Process(tone(400e3, fs, 4000))
	sb := Power(stop[500:])
	if sb > 1e-4 {
		t.Errorf("stopband power = %v, want < 1e-4", sb)
	}
}

func TestLowPassFIRUnitDCGain(t *testing.T) {
	fir := LowPassFIR(0.1e6, 1e6, 63)
	var sum float64
	for _, tap := range fir.Taps() {
		sum += tap
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("tap sum = %v, want 1 (unit DC gain)", sum)
	}
}

func TestFIRImpulseResponseEqualsTaps(t *testing.T) {
	taps := []float64{0.25, 0.5, 0.25}
	fir := NewFIR(taps)
	impulse := make([]complex128, 5)
	impulse[0] = 1
	out := fir.Process(impulse)
	want := []float64{0.25, 0.5, 0.25, 0, 0}
	for i := range want {
		if math.Abs(real(out[i])-want[i]) > 1e-12 || imag(out[i]) != 0 {
			t.Fatalf("impulse response[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestFIRStreamingMatchesBlock(t *testing.T) {
	r := rng.New(8)
	x := randomVector(r, 300)
	a := LowPassFIR(0.2e6, 1e6, 31)
	b := LowPassFIR(0.2e6, 1e6, 31)
	whole := a.Process(x)
	var parts []complex128
	parts = append(parts, b.Process(x[:100])...)
	parts = append(parts, b.Process(x[100:250])...)
	parts = append(parts, b.Process(x[250:])...)
	if e := maxErr(whole, parts); e > 1e-12 {
		t.Fatalf("streaming output differs from block output by %v", e)
	}
}

func TestRCStepResponse(t *testing.T) {
	const fs = 1e6
	const tau = 100e-6
	rc := NewRC(tau, fs)
	// After one time constant of a unit step the output is 1-1/e.
	steps := int(tau * fs)
	var y float64
	for i := 0; i < steps; i++ {
		y = rc.ProcessSample(1)
	}
	want := 1 - math.Exp(-1)
	if math.Abs(y-want) > 0.01 {
		t.Fatalf("RC step response after tau = %v, want %v", y, want)
	}
}

func TestRCDCGainIsUnity(t *testing.T) {
	rc := NewRC(10e-6, 1e6)
	var y float64
	for i := 0; i < 200000; i++ {
		y = rc.ProcessSample(2.5)
	}
	if math.Abs(y-2.5) > 1e-6 {
		t.Fatalf("RC settled at %v, want 2.5", y)
	}
}

func TestComparatorHysteresis(t *testing.T) {
	c := NewComparator(0.1, 0)
	if c.ProcessSample(1.05, 1.0) {
		t.Fatal("comparator tripped inside hysteresis band")
	}
	if !c.ProcessSample(1.2, 1.0) {
		t.Fatal("comparator failed to trip above band")
	}
	// Once high it stays high until input falls below vref*(1-hyst).
	if !c.ProcessSample(0.95, 1.0) {
		t.Fatal("comparator dropped inside hysteresis band")
	}
	if c.ProcessSample(0.85, 1.0) {
		t.Fatal("comparator failed to drop below band")
	}
}

func TestComparatorDelay(t *testing.T) {
	c := NewComparator(0, 3)
	outs := []bool{
		c.ProcessSample(2, 1),
		c.ProcessSample(2, 1),
		c.ProcessSample(2, 1),
		c.ProcessSample(2, 1),
	}
	want := []bool{false, false, false, true}
	for i := range want {
		if outs[i] != want[i] {
			t.Fatalf("comparator delay outputs = %v, want %v", outs, want)
		}
	}
}

func TestMixShiftsSpectrum(t *testing.T) {
	const fs = 1e6
	x := tone(0, fs, 1024) // DC tone
	Mix(x, 125e3, fs, 0)
	spec := FFT(x)
	peak, _ := MaxAbsIndex(spec)
	want := int(125e3 / fs * 1024)
	if peak != want {
		t.Fatalf("mixed tone at bin %d, want %d", peak, want)
	}
}

func TestMixLongStreamAmplitudeStable(t *testing.T) {
	const fs = 1e6
	x := make([]complex128, 500000)
	for i := range x {
		x[i] = 1
	}
	Mix(x, 333.3, fs, 0.5)
	for i, v := range x {
		if a := cmplx.Abs(v); math.Abs(a-1) > 1e-9 {
			t.Fatalf("amplitude drift at sample %d: %v", i, a)
		}
	}
}

func TestCrossCorrelatePeakAtTrueLag(t *testing.T) {
	r := rng.New(11)
	ref := randomVector(r, 63)
	x := make([]complex128, 400)
	for i := range x {
		x[i] = complex(0.05*r.NormFloat64(), 0.05*r.NormFloat64())
	}
	const trueLag = 137
	for i, v := range ref {
		x[trueLag+i] += v
	}
	lag, mag := MaxAbsIndex(CrossCorrelate(x, ref))
	peak := mag / math.Sqrt(Energy(x[lag:lag+len(ref)])*Energy(ref))
	if lag != trueLag {
		t.Fatalf("correlation peak at %d, want %d", lag, trueLag)
	}
	if peak < 0.9 {
		t.Fatalf("normalized peak = %v, want > 0.9", peak)
	}
}

func TestCrossCorrelateDegenerateInputs(t *testing.T) {
	if got := CrossCorrelate(nil, nil); got != nil {
		t.Fatal("CrossCorrelate(nil,nil) != nil")
	}
	if got := CrossCorrelate(make([]complex128, 3), make([]complex128, 5)); got != nil {
		t.Fatal("CrossCorrelate with short x != nil")
	}
}

func TestScaleToSetsPower(t *testing.T) {
	r := rng.New(12)
	x := randomVector(r, 1000)
	ScaleTo(x, 0.25)
	if p := Power(x); math.Abs(p-0.25) > 1e-12 {
		t.Fatalf("ScaleTo power = %v, want 0.25", p)
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-30, -3, 0, 10, 40} {
		if got := DB(FromDB(db)); math.Abs(got-db) > 1e-9 {
			t.Fatalf("DB(FromDB(%v)) = %v", db, got)
		}
	}
}

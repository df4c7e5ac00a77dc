package channel

import (
	"math"
	"testing"
	"testing/quick"

	"lscatter/internal/dsp"
	"lscatter/internal/rng"
)

func TestFeetToMeters(t *testing.T) {
	if m := FeetToMeters(10); math.Abs(m-3.048) > 1e-9 {
		t.Fatalf("10 ft = %v m", m)
	}
}

// wattsToDBm converts watts to dBm.
func wattsToDBm(w float64) float64 { return 10*math.Log10(w) + 30 }

func TestDBmWattsRoundTrip(t *testing.T) {
	for _, dbm := range []float64{-100, -30, 0, 10, 40} {
		if got := wattsToDBm(DBmToWatts(dbm)); math.Abs(got-dbm) > 1e-9 {
			t.Fatalf("round trip %v -> %v", dbm, got)
		}
	}
}

func TestPathLossFreeSpaceKnownValue(t *testing.T) {
	// FSPL at 680 MHz, 100 m, exponent 2: 20log10(4*pi*100*f/c) ~ 69.1 dB.
	pl := PathLoss{FreqHz: 680e6, Exponent: 2}
	got := pl.LossDB(100)
	want := 20 * math.Log10(4*math.Pi*100*680e6/SpeedOfLight)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("loss = %v, want %v", got, want)
	}
}

func TestPathLossMonotoneInDistanceAndExponent(t *testing.T) {
	pl := PathLoss{FreqHz: 680e6, Exponent: 2.5}
	prev := -1.0
	for d := 1.0; d < 200; d *= 1.5 {
		l := pl.LossDB(d)
		if l <= prev {
			t.Fatalf("loss not increasing at %v m", d)
		}
		prev = l
	}
	steeper := PathLoss{FreqHz: 680e6, Exponent: 3.5}
	if steeper.LossDB(50) <= pl.LossDB(50) {
		t.Fatal("higher exponent did not increase loss")
	}
}

func TestPathLoss680MHzBeats2_4GHz(t *testing.T) {
	// The paper's Fig 23 crossover rests on the 680 MHz carrier having less
	// path loss than 2.4 GHz at the same distance.
	lte := PathLoss{FreqHz: 680e6, Exponent: 2}
	wifi := PathLoss{FreqHz: 2.437e9, Exponent: 2}
	d := 50.0
	gap := wifi.LossDB(d) - lte.LossDB(d)
	want := 20 * math.Log10(2.437e9/680e6) // ~11.1 dB
	if math.Abs(gap-want) > 0.01 {
		t.Fatalf("carrier advantage = %v dB, want %v", gap, want)
	}
}

func TestPathLossClampsNearField(t *testing.T) {
	pl := PathLoss{FreqHz: 1e9, Exponent: 2}
	if pl.LossDB(0) != pl.LossDB(0.05) {
		t.Fatal("near-field distances not clamped")
	}
}

func TestNoiseFloor(t *testing.T) {
	// -174 + 10log10(18e6) + 7 ~ -94.4 dBm
	w := NoiseFloorW(18e6, 7)
	if dbm := wattsToDBm(w); math.Abs(dbm+94.45) > 0.2 {
		t.Fatalf("noise floor = %v dBm, want ~-94.4", dbm)
	}
}

func TestAWGNPowerAndZeroCase(t *testing.T) {
	r := rng.New(1)
	x := make([]complex128, 100000)
	AWGN(r, x, 0.25)
	if p := dsp.Power(x); math.Abs(p-0.25) > 0.01 {
		t.Fatalf("noise power = %v, want 0.25", p)
	}
	y := make([]complex128, 10)
	AWGN(r, y, 0)
	for _, v := range y {
		if v != 0 {
			t.Fatal("zero-power AWGN mutated signal")
		}
	}
}

func TestMultipathUnitEnergy(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		for _, p := range []Profile{FlatProfile, PedestrianProfile, RichProfile} {
			m := NewMultipath(r, p, 30.72e6)
			var e float64
			for _, tap := range m.taps {
				e += real(tap)*real(tap) + imag(tap)*imag(tap)
			}
			if math.Abs(e-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMultipathFlatIsIdentity(t *testing.T) {
	r := rng.New(2)
	m := NewMultipath(r, FlatProfile, 1e6)
	if m.NumTaps() != 1 {
		t.Fatalf("flat profile has %d taps", m.NumTaps())
	}
	x := []complex128{1, 2i, -3}
	y := m.Apply(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("flat channel altered signal: %v -> %v", x[i], y[i])
		}
	}
}

func TestMultipathDelaySpread(t *testing.T) {
	r := rng.New(3)
	m := NewMultipath(r, RichProfile, 30.72e6)
	// 2510 ns at 30.72 MHz ~ 77 samples.
	if m.NumTaps() < 70 || m.NumTaps() > 85 {
		t.Fatalf("rich profile taps = %d, want ~78", m.NumTaps())
	}
	// The impulse response must actually be dispersive.
	impulse := make([]complex128, 100)
	impulse[0] = 1
	h := m.Apply(impulse)
	nonzero := 0
	for _, v := range h {
		if real(v) != 0 || imag(v) != 0 {
			nonzero++
		}
	}
	if nonzero < 5 {
		t.Fatalf("rich profile produced %d taps", nonzero)
	}
}

func TestMultipathEnergyPreservedOnAverage(t *testing.T) {
	r := rng.New(4)
	x := make([]complex128, 5000)
	for i := range x {
		x[i] = r.Complex(1 / math.Sqrt2)
	}
	var total float64
	const trials = 30
	for i := 0; i < trials; i++ {
		m := NewMultipath(r, RichProfile, 30.72e6)
		total += dsp.Power(m.Apply(x))
	}
	avg := total / trials
	if avg < 0.8 || avg > 1.2 {
		t.Fatalf("mean output power over fades = %v, want ~1", avg)
	}
}

func TestHopBudget(t *testing.T) {
	r := rng.New(5)
	pl := PathLoss{FreqHz: 680e6, Exponent: 2}
	h := NewHop(r, pl, 10, 5, 3, nil)
	want := -pl.LossDB(10) + 5 - 3
	if math.Abs(h.PowerGainDB()-want) > 1e-9 {
		t.Fatalf("hop gain = %v, want %v", h.PowerGainDB(), want)
	}
	x := make([]complex128, 1000)
	for i := range x {
		x[i] = 1
	}
	y := h.Apply(x)
	gotDB := 10 * math.Log10(dsp.Power(y)/dsp.Power(x))
	if math.Abs(gotDB-want) > 0.01 {
		t.Fatalf("applied gain = %v dB, want %v", gotDB, want)
	}
}

func TestTwoHopBackscatterWeakerThanDirect(t *testing.T) {
	// Physical sanity for every distance figure: the two-hop product path is
	// always weaker than the one-hop direct path over the same total span.
	r := rng.New(6)
	pl := PathLoss{FreqHz: 680e6, Exponent: 2}
	direct := NewHop(r, pl, 20, 0, 0, nil)
	hop1 := NewHop(r, pl, 10, 0, 0, nil)
	hop2 := NewHop(r, pl, 10, 0, 6, nil) // tag loss
	twoHop := hop1.PowerGainDB() + hop2.PowerGainDB()
	if twoHop >= direct.PowerGainDB() {
		t.Fatalf("two-hop gain %v >= direct %v", twoHop, direct.PowerGainDB())
	}
}

func TestCombineAddsPathsAndNoise(t *testing.T) {
	r := rng.New(7)
	a := []complex128{1, 1, 1, 1}
	b := []complex128{2i, 2i, 2i, 2i}
	out := Combine(r, 0, a, b)
	for _, v := range out {
		if v != complex(1, 2) {
			t.Fatalf("combined sample = %v, want 1+2i", v)
		}
	}
}

func TestCombineLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Combine(rng.New(1), 0, make([]complex128, 3), make([]complex128, 4))
}

func TestFadingTrackStatistics(t *testing.T) {
	r := rng.New(21)
	f := NewFadingTrack(r, 0.95)
	var power float64
	const n = 200000
	for i := 0; i < n; i++ {
		g := f.Next()
		power += real(g)*real(g) + imag(g)*imag(g)
	}
	if p := power / n; p < 0.9 || p > 1.1 {
		t.Fatalf("fading mean power = %v, want ~1", p)
	}
}

func TestFadingTrackCorrelation(t *testing.T) {
	r := rng.New(22)
	slow := NewFadingTrack(r, 0.99)
	prev := slow.Next()
	var diff float64
	for i := 0; i < 1000; i++ {
		g := slow.Next()
		d := g - prev
		diff += real(d)*real(d) + imag(d)*imag(d)
		prev = g
	}
	slowStep := diff / 1000
	fast := NewFadingTrack(rng.New(23), 0.5)
	prev = fast.Next()
	diff = 0
	for i := 0; i < 1000; i++ {
		g := fast.Next()
		d := g - prev
		diff += real(d)*real(d) + imag(d)*imag(d)
		prev = g
	}
	fastStep := diff / 1000
	if slowStep >= fastStep/5 {
		t.Fatalf("slow fading steps (%v) not far below fast (%v)", slowStep, fastStep)
	}
}

func TestFadingTrackRejectsBadRho(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rho=1 accepted")
		}
	}()
	NewFadingTrack(rng.New(1), 1.0)
}

func TestFadingTrackApplyBlockConstant(t *testing.T) {
	f := NewFadingTrack(rng.New(24), 0.9)
	x := []complex128{1, 1, 1}
	y := f.Apply(x)
	if y[0] != y[1] || y[1] != y[2] {
		t.Fatal("gain varied within a block")
	}
}

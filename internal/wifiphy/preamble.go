package wifiphy

import (
	"math"
	"sync"

	"lscatter/internal/dsp"
)

// The 802.11 short training sequence occupies every fourth subcarrier of the
// ±26 range with QPSK-like values scaled by sqrt(13/6).
var stfCarriers = map[int]complex128{
	-24: complex(1, 1), -20: complex(-1, -1), -16: complex(1, 1),
	-12: complex(-1, -1), -8: complex(-1, -1), -4: complex(1, 1),
	4: complex(-1, -1), 8: complex(-1, -1), 12: complex(1, 1),
	16: complex(1, 1), 20: complex(1, 1), 24: complex(1, 1),
}

// ltfCarriers is the long-training BPSK sequence on subcarriers -26..26
// (index 0 = subcarrier -26), DC excluded per the standard table.
var ltfCarriers = []float64{
	1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1,
	0, // DC
	1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1,
}

// stfSymbol returns one 64-sample period of the short training field.
func stfSymbol() []complex128 {
	freq := make([]complex128, FFTSize)
	scale := complex(math.Sqrt(13.0/6.0), 0)
	for k, v := range stfCarriers {
		freq[bin(k)] = v * scale
	}
	out := make([]complex128, FFTSize)
	dsp.PlanFor(FFTSize).Inverse(out, freq)
	dsp.Scale(out, FFTSize/math.Sqrt(52))
	return out
}

// ltfSymbol returns one 64-sample period of the long training field.
func ltfSymbol() []complex128 {
	freq := make([]complex128, FFTSize)
	for i, v := range ltfCarriers {
		k := i - 26
		if v != 0 {
			freq[bin(k)] = complex(v, 0)
		}
	}
	out := make([]complex128, FFTSize)
	dsp.PlanFor(FFTSize).Inverse(out, freq)
	dsp.Scale(out, FFTSize/math.Sqrt(52))
	return out
}

// Preamble returns the 320-sample (16 us) 802.11 preamble: 10 repetitions of
// the short symbol (160 samples) followed by a double guard interval and two
// long symbols (160 samples).
func Preamble() []complex128 {
	stf := stfSymbol()
	ltf := ltfSymbol()
	out := make([]complex128, 0, 320)
	// STF: 10 x 16-sample quarters (the 64-sample period is itself 4
	// repetitions of a 16-sample pattern).
	for len(out) < 160 {
		out = append(out, stf[:16]...)
	}
	// GI2: last 32 samples of the long symbol.
	out = append(out, ltf[32:]...)
	out = append(out, ltf...)
	out = append(out, ltf...)
	return out
}

// The LTF is a constant of the standard, so its matched filter (a
// one-reference bank holding the reference spectrum and plan) and its energy
// are computed once per process.
var (
	ltfOnce   sync.Once
	ltfBank   *dsp.CorrelatorBank
	ltfEnergy float64
)

func ltfCorrelator() (*dsp.CorrelatorBank, float64) {
	ltfOnce.Do(func() {
		ltf := ltfSymbol()
		ltfBank = dsp.NewCorrelatorBank([][]complex128{ltf})
		ltfEnergy = dsp.Energy(ltf)
	})
	return ltfBank, ltfEnergy
}

// ltfFreqRef returns the known LTF subcarrier values for channel estimation.
func ltfFreqRef() []complex128 {
	out := make([]complex128, FFTSize)
	for i, v := range ltfCarriers {
		out[bin(i-26)] = complex(v, 0)
	}
	return out
}

// DetectPacket finds a frame start in a sample stream: STF detection by
// 16-sample delayed autocorrelation, then fine timing by cross-correlating
// the long training symbol. It returns the index of the first preamble
// sample and the autocorrelation confidence, or ok=false.
func DetectPacket(x []complex128) (start int, conf float64, ok bool) {
	if len(x) < 400 {
		return 0, 0, false
	}
	// Coarse: plateau of high 16-lag autocorrelation.
	const win = 96
	bestI, bestV := -1, 0.0
	var corr complex128
	var energy float64
	for i := 0; i+win+16 < len(x); i++ {
		if i == 0 {
			for j := 0; j < win; j++ {
				corr += x[j+16] * conj(x[j])
				energy += abs2(x[j])
			}
		} else {
			corr += x[i+win+15]*conj(x[i+win-1]) - x[i+15]*conj(x[i-1])
			energy += abs2(x[i+win-1]) - abs2(x[i-1])
		}
		if energy <= 1e-30 {
			continue
		}
		v := cAbs(corr) / energy
		if v > bestV {
			bestV, bestI = v, i
		}
	}
	if bestI < 0 || bestV < 0.6 {
		return 0, 0, false
	}
	// Fine: cross-correlate the LTF around the coarse estimate. The coarse
	// plateau spans roughly [start-80, start+144], so the first long symbol
	// (start+192) lies within [bestI+48, bestI+272]. One engine pass serves
	// both the detection test and the earliest-peak re-scan below; segment
	// energy advances by a running recurrence instead of a fresh O(M) sum
	// per lag, and everything compares in the squared domain.
	ltfC, refE := ltfCorrelator()
	m := ltfC.RefLen()
	searchLo := bestI + 40
	searchHi := bestI + 300
	if searchHi+m > len(x) {
		searchHi = len(x) - m
	}
	if searchHi <= searchLo {
		return 0, 0, false
	}
	seg := x[searchLo : searchHi+m]
	corrBuf := dsp.AcquireBuf(len(seg) - m + 1)
	defer dsp.ReleaseBuf(corrBuf)
	corrs := ltfC.CorrelateAll([][]complex128{*corrBuf}, seg)[0]
	peakSq := -1.0
	segE := dsp.Energy(seg[:m])
	for l := range corrs {
		if l > 0 {
			segE += abs2(seg[l+m-1]) - abs2(seg[l-1])
		}
		den := segE * refE
		if den <= 0 {
			continue
		}
		if v := abs2(corrs[l]) / den; v > peakSq {
			peakSq = v
		}
	}
	if peakSq < 0.4*0.4 {
		return 0, 0, false
	}
	// The two long symbols (and the GI2 that copies the symbol tail) create
	// several near-equal correlation peaks 64 samples apart; the first LTF
	// symbol is the EARLIEST near-maximal lag.
	firstLag := -1
	segE = dsp.Energy(seg[:m])
	for l := range corrs {
		if l > 0 {
			segE += abs2(seg[l+m-1]) - abs2(seg[l-1])
		}
		den := segE * refE
		if den <= 0 {
			continue
		}
		if abs2(corrs[l])/den >= 0.96*peakSq {
			firstLag = l
			break
		}
	}
	if firstLag < 0 {
		return 0, 0, false
	}
	// firstLag points at the first LTF symbol = preamble start + 192.
	start = searchLo + firstLag - 192
	if start < 0 {
		return 0, 0, false
	}
	return start, bestV, true
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }
func abs2(c complex128) float64    { return real(c)*real(c) + imag(c)*imag(c) }
func cAbs(c complex128) float64    { return math.Sqrt(abs2(c)) }

// Package channel simulates the wireless medium between the eNodeB, the
// LScatter tag and the UE: log-distance path loss with configurable exponent,
// Rayleigh multipath via tapped delay lines, additive white Gaussian noise at
// the thermal floor, and the two-hop backscatter link-budget geometry that
// drives every throughput/BER-vs-distance figure in the paper.
//
// Powers are tracked in watts: a waveform with mean |x|^2 = P carries P watts.
package channel

import (
	"fmt"
	"math"

	"lscatter/internal/dsp"
	"lscatter/internal/rng"
)

// Physical constants.
const (
	// SpeedOfLight in m/s.
	SpeedOfLight = 299792458.0
	// BoltzmannNoiseDBmHz is the thermal noise PSD at 290 K in dBm/Hz.
	BoltzmannNoiseDBmHz = -174.0
)

// FeetToMeters converts the paper's foot-denominated distances.
func FeetToMeters(ft float64) float64 { return ft * 0.3048 }

// DBmToWatts converts dBm to watts. It panics on NaN: a NaN power level is
// always an upstream bug (an uninitialized field, a 0/0 in a link budget),
// and letting it through silently corrupts every downstream SNR and BER.
// -Inf maps to 0 W and +Inf to +Inf W, the mathematically consistent limits.
func DBmToWatts(dbm float64) float64 {
	if math.IsNaN(dbm) {
		panic("channel: DBmToWatts(NaN)")
	}
	return math.Pow(10, (dbm-30)/10)
}

// WattsToDBm converts watts to dBm. Non-positive power maps to -Inf dBm
// (no power, or numerical underflow of a deep fade). It panics on NaN and on
// negative inputs beyond a tolerance: a power below -1e-15 W cannot come
// from rounding and indicates a broken link-budget computation upstream.
func WattsToDBm(w float64) float64 {
	if math.IsNaN(w) {
		panic("channel: WattsToDBm(NaN)")
	}
	if w < -1e-15 {
		panic(fmt.Sprintf("channel: WattsToDBm of negative power %v W", w))
	}
	if w <= 0 {
		return math.Inf(-1)
	}
	return 10*math.Log10(w) + 30
}

// PathLoss is a log-distance path-loss model anchored at the free-space loss
// of a 1 m reference distance:
//
//	PL(d) = FSPL(1m, f) + 10 * Exponent * log10(d / 1m)
type PathLoss struct {
	// FreqHz is the carrier frequency (the paper uses 680 MHz white space
	// for LTE and 2.437 GHz for the WiFi baseline).
	FreqHz float64
	// Exponent is the path-loss exponent: ~2.0 free space/outdoor LoS,
	// 2.2-2.5 open indoor, 2.8-3.5 cluttered NLoS.
	Exponent float64
}

// LossDB returns the positive path loss in dB at distance d meters.
// Distances below 0.1 m are clamped to avoid near-field singularities.
// NaN distances panic: they would otherwise propagate a NaN gain through
// every hop product and surface only as a mysteriously dead link.
func (pl PathLoss) LossDB(d float64) float64 {
	if pl.FreqHz <= 0 {
		panic("channel: PathLoss needs a positive frequency")
	}
	if math.IsNaN(d) {
		panic("channel: PathLoss distance is NaN")
	}
	if d < 0.1 {
		d = 0.1
	}
	fspl1m := 20 * math.Log10(4*math.Pi*pl.FreqHz/SpeedOfLight)
	return fspl1m + 10*pl.Exponent*math.Log10(d)
}

// Gain returns the linear amplitude gain (sqrt of power gain) at distance d.
func (pl PathLoss) Gain(d float64) float64 {
	return math.Pow(10, -pl.LossDB(d)/20)
}

// NoiseFloorW returns the thermal noise power in watts over the given
// bandwidth with the given receiver noise figure. It panics on a
// non-positive or non-finite bandwidth and on a NaN noise figure.
func NoiseFloorW(bandwidthHz, noiseFigureDB float64) float64 {
	if !(bandwidthHz > 0) || math.IsInf(bandwidthHz, 0) {
		panic(fmt.Sprintf("channel: NoiseFloorW bandwidth %v Hz must be positive and finite", bandwidthHz))
	}
	if math.IsNaN(noiseFigureDB) {
		panic("channel: NoiseFloorW noise figure is NaN")
	}
	dbm := BoltzmannNoiseDBmHz + 10*math.Log10(bandwidthHz) + noiseFigureDB
	return DBmToWatts(dbm)
}

// AWGN adds complex white Gaussian noise of the given total power (watts,
// i.e. variance per sample) to x in place and returns x. Zero power is the
// noiseless fast path; negative, NaN or Inf power panics — sqrt of a
// negative or NaN variance would silently fill the whole buffer with NaN.
func AWGN(r *rng.Source, x []complex128, noisePowerW float64) []complex128 {
	if noisePowerW == 0 {
		return x
	}
	if noisePowerW < 0 || math.IsNaN(noisePowerW) || math.IsInf(noisePowerW, 0) {
		panic(fmt.Sprintf("channel: AWGN noise power %v W must be finite and >= 0", noisePowerW))
	}
	sigma := math.Sqrt(noisePowerW / 2)
	for i := range x {
		x[i] += r.Complex(sigma)
	}
	return x
}

// Profile names a multipath delay profile.
type Profile int

const (
	// FlatProfile is a single-tap (no multipath) channel.
	FlatProfile Profile = iota
	// PedestrianProfile is an EPA-like short-delay profile (indoor LoS,
	// light multipath).
	PedestrianProfile
	// RichProfile is an EVA-like profile modeling the paper's
	// "multipath-rich" home and NLoS settings.
	RichProfile
)

// profileTaps returns (delays in ns, mean power in dB) pairs.
func profileTaps(p Profile) (delaysNs, powersDB []float64) {
	switch p {
	case FlatProfile:
		return []float64{0}, []float64{0}
	case PedestrianProfile:
		return []float64{0, 30, 70, 90, 110, 190, 410},
			[]float64{0, -1, -2, -3, -8, -17.2, -20.8}
	case RichProfile:
		return []float64{0, 30, 150, 310, 370, 710, 1090, 1730, 2510},
			[]float64{0, -1.5, -1.4, -3.6, -0.6, -9.1, -7, -12, -16.9}
	}
	panic(fmt.Sprintf("channel: unknown profile %d", p))
}

// Multipath is a static tapped-delay-line channel realization with unit
// average energy, applied by direct convolution.
type Multipath struct {
	taps []complex128 // tap gain at integer sample delays (sparse-dense)
	// delays and gains list the non-zero taps in ascending delay order,
	// built once by NewMultipath and read-only after, so one realization
	// can be applied from several goroutines.
	delays []int
	gains  []complex128
}

// NewMultipath draws a Rayleigh realization of the given profile at the
// given sample rate. The realization is normalized to unit energy so path
// loss fully controls the link budget.
func NewMultipath(r *rng.Source, p Profile, sampleRate float64) *Multipath {
	delays, powers := profileTaps(p)
	maxDelay := 0
	for _, d := range delays {
		if s := int(math.Round(d * 1e-9 * sampleRate)); s > maxDelay {
			maxDelay = s
		}
	}
	taps := make([]complex128, maxDelay+1)
	for i, d := range delays {
		s := int(math.Round(d * 1e-9 * sampleRate))
		amp := math.Pow(10, powers[i]/20)
		if i == 0 && p != FlatProfile {
			// Ricean first tap: strong fixed component plus scatter, so LoS
			// links do not fade to zero.
			taps[s] += complex(amp, 0) + r.Complex(amp*0.3/math.Sqrt2)
			continue
		}
		if p == FlatProfile {
			taps[s] += complex(amp, 0)
			continue
		}
		taps[s] += r.Complex(amp / math.Sqrt2)
	}
	// Normalize to unit energy.
	var e float64
	for _, t := range taps {
		e += real(t)*real(t) + imag(t)*imag(t)
	}
	if e > 0 {
		g := complex(1/math.Sqrt(e), 0)
		for i := range taps {
			taps[i] *= g
		}
	}
	m := &Multipath{taps: taps}
	for d, t := range taps {
		if t != 0 {
			m.delays = append(m.delays, d)
			m.gains = append(m.gains, t)
		}
	}
	return m
}

// NumTaps returns the delay-line length in samples.
func (m *Multipath) NumTaps() int { return len(m.taps) }

// Apply convolves x with the channel impulse response, returning len(x)
// output samples (the tail is truncated). It runs tap by tap over the
// non-zero taps, so each output still sums its terms in ascending delay
// order from +0, as a per-sample walk of the delay line would.
func (m *Multipath) Apply(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for j, d := range m.delays {
		if d >= len(x) {
			break
		}
		g := m.gains[j]
		src := x[:len(x)-d]
		dst := out[d:]
		dst = dst[:len(src)]
		for i, v := range src {
			dst[i] += v * g
		}
	}
	return out
}

// The Ricean LoS fade's constants: K = 7 dB, the specular amplitude
// √(K/(K+1)) and the per-axis scatter deviation √(1/(2(K+1))), computed once
// rather than per draw.
var (
	riceK     = math.Pow(10, 0.7)
	riceLoS   = math.Sqrt(riceK / (riceK + 1))
	riceSigma = math.Sqrt(1 / (2 * (riceK + 1)))
)

// FadePower draws a unit-mean power fade: Ricean with K = 7 dB when los,
// Rayleigh otherwise. It is the flat link fade of the semi-analytic models,
// which Monte-Carlo their BER over it; each call draws two normals from r.
func FadePower(r *rng.Source, los bool) float64 {
	if los {
		re := riceLoS + riceSigma*r.NormFloat64()
		im := riceSigma * r.NormFloat64()
		return re*re + im*im
	}
	re := r.NormFloat64() / math.Sqrt2
	im := r.NormFloat64() / math.Sqrt2
	return re*re + im*im
}

// Hop is one radio propagation segment with its geometry and fading state.
type Hop struct {
	PL       PathLoss
	Distance float64 // meters
	// AntennaGainDB is the sum of both end antenna gains.
	AntennaGainDB float64
	// Fading is an optional multipath realization (nil = pure path loss).
	Fading *Multipath
	// ExtraLossDB models fixed implementation losses (e.g. tag reflection).
	ExtraLossDB float64
	// phase is the random carrier phase of the hop.
	phase complex128
}

// NewHop builds a hop with a random uniform carrier phase.
func NewHop(r *rng.Source, pl PathLoss, distanceM, antennaGainDB, extraLossDB float64, fading *Multipath) *Hop {
	ph := 2 * math.Pi * r.Float64()
	return &Hop{
		PL:            pl,
		Distance:      distanceM,
		AntennaGainDB: antennaGainDB,
		Fading:        fading,
		ExtraLossDB:   extraLossDB,
		phase:         complex(math.Cos(ph), math.Sin(ph)),
	}
}

// PowerGainDB returns the hop's mean power gain in dB (negative).
func (h *Hop) PowerGainDB() float64 {
	return -h.PL.LossDB(h.Distance) + h.AntennaGainDB - h.ExtraLossDB
}

// Gain returns the hop's complex amplitude coefficient: the linear amplitude
// gain times the hop's random carrier phase. For a fading-free hop, Apply is
// exactly a multiply by this coefficient, which is what lets a fleet-scale
// consumer collapse many parked-tag paths into one closed-form scalar.
func (h *Hop) Gain() complex128 {
	return complex(math.Pow(10, h.PowerGainDB()/20), 0) * h.phase
}

// Apply propagates x through the hop into a fresh slice.
func (h *Hop) Apply(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	gain := h.Gain()
	for i, v := range x {
		out[i] = v * gain
	}
	if h.Fading != nil {
		out = h.Fading.Apply(out)
	}
	return out
}

// FadingTrack models slow time variation of a link: a first-order
// autoregressive complex gain with unit mean power,
//
//	g[t+1] = rho * g[t] + sqrt(1-rho^2) * w,   w ~ CN(0,1)
//
// evaluated once per step (one subframe in the exact chain). rho near 1 is
// pedestrian-speed fading; smaller rho approaches block fading.
type FadingTrack struct {
	rho float64
	g   complex128
	r   *rng.Source
}

// NewFadingTrack builds a track with the given per-step correlation.
func NewFadingTrack(r *rng.Source, rho float64) *FadingTrack {
	if rho < 0 || rho >= 1 {
		panic("channel: fading correlation must be in [0,1)")
	}
	return &FadingTrack{rho: rho, g: r.Complex(1 / math.Sqrt2), r: r}
}

// Next advances one step and returns the current complex gain.
func (f *FadingTrack) Next() complex128 {
	f.g = complex(f.rho, 0)*f.g + f.r.Complex(math.Sqrt(1-f.rho*f.rho)/math.Sqrt2)
	return f.g
}

// Apply multiplies x by the current gain into a fresh slice (gain constant
// within the block: block fading at the step granularity).
func (f *FadingTrack) Apply(x []complex128) []complex128 {
	g := f.Next()
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = v * g
	}
	return out
}

// Combine sums any number of equally long propagation products (e.g. direct
// path plus backscatter path) and adds receiver noise.
func Combine(r *rng.Source, noisePowerW float64, paths ...[]complex128) []complex128 {
	if len(paths) == 0 {
		panic("channel: Combine needs at least one path")
	}
	n := len(paths[0])
	out := make([]complex128, n)
	for _, p := range paths {
		if len(p) != n {
			panic("channel: Combine length mismatch")
		}
		dsp.Add(out, p)
	}
	return AWGN(r, out, noisePowerW)
}

// SNRdB computes the mean SNR in dB of signal power sigP (watts) against
// noise power noiseP. NaN inputs panic (see WattsToDBm); zero or negative
// noise yields +Inf.
func SNRdB(sigP, noiseP float64) float64 {
	if math.IsNaN(sigP) || math.IsNaN(noiseP) {
		panic("channel: SNRdB with NaN power")
	}
	if noiseP <= 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sigP/noiseP)
}

package dsp

import "math"

// Window function names for STFT and filter design.
type Window int

const (
	// Hann is the raised-cosine window.
	Hann Window = iota
	// Hamming is the Hamming window.
	Hamming
	// Blackman is the three-term Blackman window.
	Blackman
)

// Coefficients returns the n window coefficients.
func (w Window) Coefficients(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		switch w {
		case Hann:
			out[i] = 0.5 * (1 - math.Cos(x))
		case Hamming:
			out[i] = 0.54 - 0.46*math.Cos(x)
		case Blackman:
			out[i] = 0.42 - 0.5*math.Cos(x) + 0.08*math.Cos(2*x)
		default:
			out[i] = 1
		}
	}
	return out
}

// Spectrogram is a time-frequency magnitude map produced by STFT. Rows index
// time frames, columns index frequency bins after FFT shift (DC centered).
type Spectrogram struct {
	// PowerDB[t][f] is the power of frame t, shifted bin f, in dB relative
	// to 1.0 (full-scale sample power).
	PowerDB [][]float64
	// FrameDur is the time step between rows in seconds.
	FrameDur float64
	// BinHz is the frequency step between columns in Hz.
	BinHz float64
	// SampleRate is the input sample rate in Hz.
	SampleRate float64
}

// STFT computes a short-time Fourier transform of x with the given FFT size,
// hop, and window. Frames that would run past the end of x are dropped.
func STFT(x []complex128, fftSize, hop int, win Window, sampleRate float64) *Spectrogram {
	if fftSize < 2 || hop < 1 {
		panic("dsp: STFT needs fftSize >= 2 and hop >= 1")
	}
	coeffs := win.Coefficients(fftSize)
	plan := PlanFor(fftSize)
	frame := make([]complex128, fftSize)
	spec := make([]complex128, fftSize)
	shifted := make([]complex128, fftSize)
	var rows [][]float64
	for start := 0; start+fftSize <= len(x); start += hop {
		for i := 0; i < fftSize; i++ {
			frame[i] = x[start+i] * complex(coeffs[i], 0)
		}
		plan.Forward(spec, frame)
		FFTShiftInto(shifted, spec)
		row := make([]float64, fftSize)
		for i, v := range shifted {
			p := (real(v)*real(v) + imag(v)*imag(v)) / float64(fftSize*fftSize)
			if p < 1e-20 {
				p = 1e-20
			}
			row[i] = 10 * math.Log10(p)
		}
		rows = append(rows, row)
	}
	return &Spectrogram{
		PowerDB:    rows,
		FrameDur:   float64(hop) / sampleRate,
		BinHz:      sampleRate / float64(fftSize),
		SampleRate: sampleRate,
	}
}

// OccupiedFraction returns, for each time frame, the fraction of bins whose
// power exceeds thresholdDB. The experiment harness uses it to turn
// spectrograms into the traffic-occupancy series of Figure 4.
func (s *Spectrogram) OccupiedFraction(thresholdDB float64) []float64 {
	out := make([]float64, len(s.PowerDB))
	for t, row := range s.PowerDB {
		n := 0
		for _, p := range row {
			if p > thresholdDB {
				n++
			}
		}
		out[t] = float64(n) / float64(len(row))
	}
	return out
}

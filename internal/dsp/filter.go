package dsp

import (
	"fmt"
	"math"
)

// FIR is a streaming finite-impulse-response filter over complex samples.
// The zero value is not usable; build one with NewFIR or LowPassFIR.
type FIR struct {
	taps []float64
	// state is the delay line, doubled: with n taps, each sample is written
	// at pos and pos+n, and pos steps down, so state[pos:pos+n] is always the
	// newest n samples newest first, with no wraparound inside the window.
	state []complex128
	pos   int // index of the newest sample, in [0, n)
}

// NewFIR builds a streaming filter from the given real taps.
func NewFIR(taps []float64) *FIR {
	if len(taps) == 0 {
		panic("dsp: FIR with no taps")
	}
	return &FIR{taps: append([]float64(nil), taps...), state: make([]complex128, 2*len(taps))}
}

// LowPassFIR designs a windowed-sinc (Hamming) low-pass filter with the given
// cutoff frequency in Hz at the given sample rate and tap count. The passband
// gain is normalized to 1. Odd tap counts give integer group delay
// (ntaps-1)/2 samples.
func LowPassFIR(cutoff, sampleRate float64, ntaps int) *FIR {
	if ntaps < 3 {
		panic("dsp: LowPassFIR needs at least 3 taps")
	}
	if cutoff <= 0 || cutoff >= sampleRate/2 {
		panic(fmt.Sprintf("dsp: LowPassFIR cutoff %v out of (0, %v)", cutoff, sampleRate/2))
	}
	taps := make([]float64, ntaps)
	fc := cutoff / sampleRate
	mid := float64(ntaps-1) / 2
	var sum float64
	for i := range taps {
		x := float64(i) - mid
		var s float64
		if x == 0 {
			s = 2 * fc
		} else {
			s = math.Sin(2*math.Pi*fc*x) / (math.Pi * x)
		}
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(ntaps-1))
		taps[i] = s * w
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return NewFIR(taps)
}

// GroupDelay returns the filter's group delay in samples ((ntaps-1)/2 for the
// linear-phase designs used here).
func (f *FIR) GroupDelay() int { return (len(f.taps) - 1) / 2 }

// Taps returns a copy of the filter taps.
func (f *FIR) Taps() []float64 { return append([]float64(nil), f.taps...) }

// Reset clears the delay line.
func (f *FIR) Reset() {
	for i := range f.state {
		f.state[i] = 0
	}
	f.pos = 0
}

// Push advances the delay line by one sample without computing an output:
// the cheap path for samples a decimator discards.
func (f *FIR) Push(x complex128) {
	n := len(f.taps)
	f.pos--
	if f.pos < 0 {
		f.pos = n - 1
	}
	f.state[f.pos] = x
	f.state[f.pos+n] = x
}

// ProcessSample pushes one sample and returns one filtered output sample.
// The taps are real, so each product is two real multiplies; the sum runs
// newest sample first.
func (f *FIR) ProcessSample(x complex128) complex128 {
	f.Push(x)
	taps := f.taps
	w := f.state[f.pos:]
	w = w[:len(taps)]
	var re, im float64
	for k, t := range taps {
		re += real(w[k]) * t
		im += imag(w[k]) * t
	}
	return complex(re, im)
}

// Process filters a block, writing len(x) outputs into a fresh slice. The
// delay line persists across calls, so consecutive blocks form one stream.
func (f *FIR) Process(x []complex128) []complex128 {
	return f.ProcessInto(make([]complex128, len(x)), x)
}

// ProcessInto filters a block into dst, which must be at least len(x) long,
// and returns dst[:len(x)]. dst may alias x for in-place filtering (each
// input sample is read before its slot is written). The delay line persists
// across calls, so consecutive blocks form one stream.
func (f *FIR) ProcessInto(dst, x []complex128) []complex128 {
	if len(dst) < len(x) {
		panic("dsp: FIR.ProcessInto dst too short")
	}
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = f.ProcessSample(v)
	}
	return dst
}

// RC models a single-pole RC low-pass filter (the tag's envelope smoothing
// and averaging stages) over real-valued samples, discretized with the exact
// zero-order-hold step alpha = 1 - exp(-dt/tau).
type RC struct {
	alpha float64
	y     float64
}

// NewRC builds an RC stage with time constant tau seconds sampled at
// sampleRate Hz.
func NewRC(tau, sampleRate float64) *RC {
	if tau <= 0 || sampleRate <= 0 {
		panic("dsp: RC requires positive tau and sample rate")
	}
	return &RC{alpha: 1 - math.Exp(-1/(tau*sampleRate))}
}

// ProcessSample advances the filter by one input sample and returns the
// capacitor voltage.
func (rc *RC) ProcessSample(x float64) float64 {
	rc.y += rc.alpha * (x - rc.y)
	return rc.y
}

// Reset discharges the capacitor.
func (rc *RC) Reset() { rc.y = 0 }

// Comparator models a voltage comparator with hysteresis and a propagation
// delay measured in samples (the paper uses a MAX931-class part with ~12 us
// propagation delay).
type Comparator struct {
	hysteresis float64
	delay      int
	pending    []bool
	state      bool
}

// NewComparator builds a comparator. hysteresis is the fraction of the
// reference that the positive input must exceed to trip (e.g. 0.05 = 5%).
// delaySamples postpones output transitions to model propagation delay.
func NewComparator(hysteresis float64, delaySamples int) *Comparator {
	if delaySamples < 0 {
		panic("dsp: negative comparator delay")
	}
	return &Comparator{hysteresis: hysteresis, delay: delaySamples, pending: make([]bool, delaySamples)}
}

// ProcessSample compares vin against vref and returns the (delayed) logical
// output.
func (c *Comparator) ProcessSample(vin, vref float64) bool {
	var raw bool
	if c.state {
		raw = vin > vref*(1-c.hysteresis)
	} else {
		raw = vin > vref*(1+c.hysteresis)
	}
	c.state = raw
	if c.delay == 0 {
		return raw
	}
	out := c.pending[0]
	copy(c.pending, c.pending[1:])
	c.pending[c.delay-1] = raw
	return out
}

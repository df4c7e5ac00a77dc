package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// refFIR is the single-buffer FIR that FIR replaced, kept verbatim as the
// reference: a circular delay line walked with a wraparound branch per tap,
// each product taken against complex(t, 0).
type refFIR struct {
	taps  []float64
	state []complex128 // circular delay line
	pos   int
}

func newRefFIR(taps []float64) *refFIR {
	return &refFIR{taps: append([]float64(nil), taps...), state: make([]complex128, len(taps))}
}

func (f *refFIR) Reset() {
	for i := range f.state {
		f.state[i] = 0
	}
	f.pos = 0
}

func (f *refFIR) ProcessSample(x complex128) complex128 {
	f.state[f.pos] = x
	var acc complex128
	idx := f.pos
	for _, t := range f.taps {
		acc += f.state[idx] * complex(t, 0)
		idx--
		if idx < 0 {
			idx = len(f.state) - 1
		}
	}
	f.pos++
	if f.pos == len(f.state) {
		f.pos = 0
	}
	return acc
}

// FuzzFIREquivalence drives the doubled-delay-line FIR and the reference
// through one random stream with a random interleave of Push (the reference
// computes and discards the output), ProcessSample and Reset, and requires
// every computed output to be bit-identical. Taps and samples carry signed
// zeros and exact cancellations, the cases where the real-tap multiply could
// differ from the complex one.
func FuzzFIREquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	long := make([]byte, 4096)
	rng.Read(long)
	f.Add(long, uint8(63), int64(1))
	f.Add(long[:1024], uint8(101), int64(2))
	f.Add(long[:300], uint8(1), int64(3))
	f.Add([]byte{0, 128, 255, 1}, uint8(3), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, ntaps uint8, seed int64) {
		n := 1 + int(ntaps)%128
		r := rand.New(rand.NewSource(seed))
		taps := make([]float64, n)
		for i := range taps {
			switch r.Intn(8) {
			case 0:
				taps[i] = 0
			case 1:
				taps[i] = math.Copysign(0, -1)
			case 2:
				taps[i] = float64(r.Intn(5) - 2)
			default:
				taps[i] = r.NormFloat64()
			}
		}
		fast, ref := NewFIR(taps), newRefFIR(taps)
		for i, x := range bytesToIQ(data) {
			if r.Intn(4) == 0 {
				x = -x // turns the zero sample into (-0, -0)
			}
			switch op := r.Intn(16); {
			case op == 0:
				fast.Reset()
				ref.Reset()
			case op < 8:
				fast.Push(x)
				ref.ProcessSample(x)
			default:
				got, want := fast.ProcessSample(x), ref.ProcessSample(x)
				if got != want {
					t.Fatalf("sample %d (%d taps): got %v, want %v", i, n, got, want)
				}
			}
		}
	})
}

// BenchmarkFIR measures one 63-tap anti-alias stage over a 4096-sample
// block, filtering every sample (all) and decimating by 8 the way the tag's
// sync front end does (decim8): the reference computes all outputs and keeps
// every eighth, the fast path pushes the seven it would discard.
func BenchmarkFIR(b *testing.B) {
	x := randIQ(rand.New(rand.NewSource(10)), 4096)
	taps := LowPassFIR(0.1e6, 1e6, 63).Taps()
	var sink complex128
	b.Run("ref/all", func(b *testing.B) {
		f := newRefFIR(taps)
		for i := 0; i < b.N; i++ {
			for _, v := range x {
				sink = f.ProcessSample(v)
			}
		}
	})
	b.Run("fast/all", func(b *testing.B) {
		f := NewFIR(taps)
		for i := 0; i < b.N; i++ {
			for _, v := range x {
				sink = f.ProcessSample(v)
			}
		}
	})
	b.Run("ref/decim8", func(b *testing.B) {
		f := newRefFIR(taps)
		for i := 0; i < b.N; i++ {
			for j, v := range x {
				if y := f.ProcessSample(v); j%8 == 7 {
					sink = y
				}
			}
		}
	})
	b.Run("fast/decim8", func(b *testing.B) {
		f := NewFIR(taps)
		for i := 0; i < b.N; i++ {
			for j, v := range x {
				if j%8 == 7 {
					sink = f.ProcessSample(v)
				} else {
					f.Push(v)
				}
			}
		}
	})
	firSink = sink
}

var firSink complex128

package channel

import (
	"fmt"
	"sync"
	"testing"

	"lscatter/internal/bits"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
)

// refApply is the dense convolution that Multipath.Apply replaced, kept
// verbatim as the reference: it walks every tap of the delay line and skips
// the zero ones and the ones that reach before the block start.
func refApply(m *Multipath, x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i := range x {
		var acc complex128
		for d, t := range m.taps {
			if t == 0 || i-d < 0 {
				continue
			}
			acc += x[i-d] * t
		}
		out[i] = acc
	}
	return out
}

// multipathRates lists every bandwidth's sample rate at 1x and at the 2x
// oversampling the waveform chain also runs.
func multipathRates() []float64 {
	var rates []float64
	for _, bw := range ltephy.Bandwidths {
		rates = append(rates, bw.SampleRate(), 2*bw.SampleRate())
	}
	return rates
}

func randomBlock(r *rng.Source, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = r.Complex(1)
	}
	return x
}

// TestMultipathSparseMatchesDense requires the sparse-tap Apply to equal the
// dense reference exactly, for every profile at every bandwidth's rate, on a
// block longer than the delay line and on one shorter than it.
func TestMultipathSparseMatchesDense(t *testing.T) {
	r := rng.New(21)
	for _, p := range []Profile{FlatProfile, PedestrianProfile, RichProfile} {
		for _, sr := range multipathRates() {
			t.Run(fmt.Sprintf("profile%d/%.0f", p, sr), func(t *testing.T) {
				m := NewMultipath(r, p, sr)
				for _, n := range []int{3000, m.NumTaps() / 2} {
					x := randomBlock(r, n)
					got, want := m.Apply(x), refApply(m, x)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("n=%d sample %d: got %v, want %v", n, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestMultipathConcurrentApply shares one Multipath and one ConvCode across
// goroutines, each applying and decoding its own input and comparing with
// the sequential result; under the race detector it also shows that both
// are read-only after construction.
func TestMultipathConcurrentApply(t *testing.T) {
	const workers = 4
	r := rng.New(22)
	m := NewMultipath(r, RichProfile, ltephy.BW5.SampleRate())
	code := bits.NewConvCodeR13()
	blocks := make([][]complex128, workers)
	llrs := make([][]float64, workers)
	wantY := make([][]complex128, workers)
	wantBits := make([][]byte, workers)
	for w := range blocks {
		blocks[w] = randomBlock(r, 4000)
		coded := code.Encode(r.Bits(make([]byte, 200)))
		llrs[w] = make([]float64, len(coded))
		for i, b := range coded {
			llrs[w][i] = 1 - 2*float64(b) + r.NormFloat64()
		}
		wantY[w] = m.Apply(blocks[w])
		wantBits[w] = code.DecodeSoft(llrs[w])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				y := m.Apply(blocks[w])
				for i := range y {
					if y[i] != wantY[w][i] {
						t.Errorf("worker %d: Apply sample %d: got %v, want %v", w, i, y[i], wantY[w][i])
						return
					}
				}
				if got := code.DecodeSoft(llrs[w]); string(got) != string(wantBits[w]) {
					t.Errorf("worker %d: DecodeSoft differs from the sequential decode", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkMultipathApply applies a rich-profile realization at the 5 MHz
// rate to one subframe's worth of samples, through the dense reference (ref)
// and the sparse-tap walk (fast).
func BenchmarkMultipathApply(b *testing.B) {
	r := rng.New(23)
	sr := ltephy.BW5.SampleRate()
	m := NewMultipath(r, RichProfile, sr)
	x := randomBlock(r, int(sr/1000))
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			applySink = refApply(m, x)
		}
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			applySink = m.Apply(x)
		}
	})
}

var applySink []complex128

package modem

import (
	"encoding/binary"
	"math"
	"testing"

	"lscatter/internal/rng"
)

// refDemapSoft is the point-by-point max-log demapper that DemapSoft
// replaced, kept verbatim as the reference: for every symbol and bit it
// walks all 2^bps constellation points.
func refDemapSoft(s Scheme, syms []complex128, noiseVar float64) []float64 {
	if noiseVar <= 0 {
		noiseVar = 1e-12
	}
	bps := s.BitsPerSymbol()
	points, bitsOf := constellationTable(s)
	out := make([]float64, 0, len(syms)*bps)
	for _, y := range syms {
		for bit := 0; bit < bps; bit++ {
			best0, best1 := math.Inf(1), math.Inf(1)
			for pi, p := range points {
				d := y - p
				dist := real(d)*real(d) + imag(d)*imag(d)
				if bitsOf[pi][bit] == 0 {
					if dist < best0 {
						best0 = dist
					}
				} else if dist < best1 {
					best1 = dist
				}
			}
			out = append(out, (best1-best0)/noiseVar)
		}
	}
	return out
}

var allSchemes = []Scheme{BPSK, QPSK, QAM16, QAM64}

// sameLLRs reports the first index where got and want differ in their
// float64 bits, or -1. Any NaN matches any NaN: a NaN's payload depends on
// the operand order the compiler picks, and no output shows it.
func sameLLRs(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
			!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// TestDemapAxesSeparable checks the premise of the separable demapper: every
// point MapSymbol builds is exactly (I level of its even bits, Q level of
// its odd bits).
func TestDemapAxesSeparable(t *testing.T) {
	for _, s := range allSchemes {
		ax := demapAxes[s]
		if got := ax[0].nbits + ax[1].nbits; got != s.BitsPerSymbol() {
			t.Fatalf("%v: axes carry %d bits, want %d", s, got, s.BitsPerSymbol())
		}
		points, bitsOf := constellationTable(s)
		for v, p := range points {
			var iIdx, qIdx int
			for b, bit := range bitsOf[v] {
				if b%2 == 0 {
					iIdx = iIdx<<1 | int(bit)
				} else {
					qIdx = qIdx<<1 | int(bit)
				}
			}
			if math.Float64bits(ax[0].levels[iIdx]) != math.Float64bits(real(p)) ||
				math.Float64bits(ax[1].levels[qIdx]) != math.Float64bits(imag(p)) {
				t.Errorf("%v point %v = %v, axes give (%v, %v)", s, bitsOf[v], p, ax[0].levels[iIdx], ax[1].levels[qIdx])
			}
		}
	}
}

// edgeFloats are the coordinates where a reordered minimum could differ:
// non-finite values, signed zeros, subnormals, values whose squares
// overflow, and exact constellation levels and decision boundaries.
var edgeFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, math.SmallestNonzeroFloat64 * 1e10, 1e308, -1e308, 1e154, -1.5e154,
	1, -1, 1 / math.Sqrt2, -1 / math.Sqrt2, 2 / math.Sqrt(10), -2 / math.Sqrt(10),
	3 / math.Sqrt(10), 4 / math.Sqrt(42), -6 / math.Sqrt(42), 7 / math.Sqrt(42),
}

// TestDemapSoftMatchesReference runs both demappers over noisy symbols of
// every scheme, every pair of edge coordinates and a spread of noise
// variances, and requires bit-identical LLRs.
func TestDemapSoftMatchesReference(t *testing.T) {
	r := rng.New(21)
	var syms []complex128
	for _, re := range edgeFloats {
		for _, im := range edgeFloats {
			syms = append(syms, complex(re, im))
		}
	}
	for i := 0; i < 20000; i++ {
		syms = append(syms, r.Complex(0.3+2*r.Float64()))
	}
	for _, s := range allSchemes {
		for _, nv := range []float64{0.1, 1, 0, -1, 1e-300, 5e-324, math.Inf(1), math.NaN()} {
			got, want := DemapSoft(s, syms, nv), refDemapSoft(s, syms, nv)
			if i := sameLLRs(got, want); i >= 0 {
				t.Fatalf("%v noiseVar %v LLR %d (symbol %v): got %v, want %v",
					s, nv, i, syms[i/s.BitsPerSymbol()], got[i], want[i])
			}
		}
	}
}

// fuzzSymbols decodes fuzz bytes into symbols, 9 bytes per coordinate: a
// selector byte picks raw float64 bits (NaN, ±Inf, subnormals, huge values)
// one time in four, and otherwise a fixed-point value within ±4, where the
// constellation levels and decision boundaries lie.
func fuzzSymbols(data []byte) []complex128 {
	coord := func(c []byte) float64 {
		if c[0]%4 == 0 {
			return math.Float64frombits(binary.LittleEndian.Uint64(c[1:]))
		}
		return float64(int32(binary.LittleEndian.Uint32(c[1:]))) / (1 << 29)
	}
	syms := make([]complex128, 0, len(data)/18)
	for ; len(data) >= 18; data = data[18:] {
		syms = append(syms, complex(coord(data[:9]), coord(data[9:18])))
	}
	return syms
}

// rawCoord encodes v as one raw-bits coordinate of fuzzSymbols.
func rawCoord(v float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{0}, math.Float64bits(v))
}

// FuzzDemapSoftEquivalence runs the separable demapper against the
// point-by-point reference on fuzzed symbols, scheme and noise variance and
// requires bit-identical LLRs.
func FuzzDemapSoftEquivalence(f *testing.F) {
	var edges []byte
	for _, re := range edgeFloats {
		for _, im := range edgeFloats {
			edges = append(append(edges, rawCoord(re)...), rawCoord(im)...)
		}
	}
	r := rng.New(22)
	noisy := make([]byte, 18*300)
	for i := range noisy {
		noisy[i] = byte(r.Uint64())
	}
	f.Add(edges, uint8(QAM64), 0.05)
	f.Add(edges, uint8(BPSK), 0.0)
	f.Add(noisy, uint8(QAM16), 1.0)
	f.Add(noisy, uint8(QPSK), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, scheme uint8, noiseVar float64) {
		s := allSchemes[int(scheme)%len(allSchemes)]
		syms := fuzzSymbols(data)
		got, want := DemapSoft(s, syms, noiseVar), refDemapSoft(s, syms, noiseVar)
		if i := sameLLRs(got, want); i >= 0 {
			t.Fatalf("%v noiseVar %v LLR %d (symbol %v): got %v, want %v",
				s, noiseVar, i, syms[i/s.BitsPerSymbol()], got[i], want[i])
		}
	})
}

// BenchmarkDemapSoft demaps a 1200-symbol 64-QAM block (one 20 MHz OFDM
// symbol's worth) with the separable demapper (fast) and the point-by-point
// reference (ref).
func BenchmarkDemapSoft(b *testing.B) {
	r := rng.New(23)
	syms := Map(QAM64, r.Bits(make([]byte, 1200*6)))
	for i := range syms {
		syms[i] += r.Complex(0.05)
	}
	var sink []float64
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = refDemapSoft(QAM64, syms, 0.01)
		}
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = DemapSoft(QAM64, syms, 0.01)
		}
	})
	demapSink = sink
}

var demapSink []float64

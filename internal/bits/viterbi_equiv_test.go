package bits

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refBranch and refBranches rebuild the source-major trellis table that
// ConvCode carried before its destination-major table replaced it.
type refBranch struct {
	next uint32
	out  []float64 // expected +1/-1 per kept bit (LLR sign convention)
}

func refBranches(c *ConvCode) *[numStates][2]refBranch {
	var branches [numStates][2]refBranch
	for s := uint32(0); s < numStates; s++ {
		for in := uint32(0); in < 2; in++ {
			reg := (s<<1 | in) & 0x7f
			outs := make([]float64, 0, c.kept)
			for g := 0; g < c.rate; g++ {
				if !c.punct[g] {
					continue
				}
				v := reg & c.gens[g]
				v ^= v >> 4
				v ^= v >> 2
				v ^= v >> 1
				if v&1 == 1 {
					outs = append(outs, -1)
				} else {
					outs = append(outs, 1)
				}
			}
			branches[s][in] = refBranch{next: reg & (numStates - 1), out: outs}
		}
	}
	return &branches
}

var refViterbiPool = sync.Pool{New: func() any { return new(viterbiScratch) }}

// refDecodeSoft is the source-major soft Viterbi that DecodeSoft replaced,
// kept verbatim as the reference: every live state relaxes both of its
// outgoing branches in ascending state order, and a branch wins only on a
// strictly greater metric.
func refDecodeSoft(c *ConvCode, branches *[numStates][2]refBranch, llr []float64) []byte {
	if len(llr)%c.kept != 0 {
		return nil
	}
	steps := len(llr) / c.kept
	n := steps - (constraintLen - 1)
	if n <= 0 {
		return nil
	}
	scr := refViterbiPool.Get().(*viterbiScratch)
	defer refViterbiPool.Put(scr)
	if cap(scr.survivor) < steps*numStates {
		scr.survivor = make([]uint16, steps*numStates)
	}
	// survivor[t*numStates+state] = (prevState<<1)|inputBit
	survivor := scr.survivor[:steps*numStates]
	metric, next := scr.metric[:], scr.next[:]
	neg := math.Inf(-1)
	for i := range metric {
		metric[i] = neg
	}
	metric[0] = 0
	for t := 0; t < steps; t++ {
		for i := range next {
			next[i] = neg
		}
		row := survivor[t*numStates : (t+1)*numStates]
		sym := llr[t*c.kept : (t+1)*c.kept]
		for s := uint32(0); s < numStates; s++ {
			if metric[s] == neg {
				continue
			}
			maxIn := uint32(1)
			if t >= n {
				maxIn = 0 // tail: only zero inputs
			}
			for in := uint32(0); in <= maxIn; in++ {
				br := &branches[s][in]
				m := metric[s]
				for k, exp := range br.out {
					m += exp * sym[k]
				}
				if m > next[br.next] {
					next[br.next] = m
					row[br.next] = uint16(s<<1 | in)
				}
			}
		}
		metric, next = next, metric
	}
	// Trellis is zero-terminated: trace back from state 0.
	out := make([]byte, n)
	state := uint32(0)
	for t := steps - 1; t >= 0; t-- {
		sv := survivor[t*numStates+int(state)]
		if t < n {
			out[t] = byte(sv & 1)
		}
		state = uint32(sv >> 1)
	}
	return out
}

// FuzzViterbiEquivalence pins the destination-major decoder to the reference
// on both codes. LLRs are small integers, so path metrics tie all the time
// and any change in the first-wins tie order shows up as a different bit;
// lengths are arbitrary, so the nil results on bad lengths must agree too.
func FuzzViterbiEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	long := make([]byte, 3000)
	rng.Read(long)
	f.Add(long, uint8(0))
	f.Add(long[:301], uint8(3))
	f.Add(long[:17], uint8(1))
	f.Add([]byte{1, 2, 3}, uint8(0))
	codes := []*ConvCode{NewConvCodeR12(), NewConvCodeR13()}
	refs := []*[numStates][2]refBranch{refBranches(codes[0]), refBranches(codes[1])}
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		llr := make([]float64, len(data))
		for i, b := range data {
			llr[i] = float64(int8(b) >> (shift % 8)) // ties at every shift
		}
		for i, c := range codes {
			got, want := c.DecodeSoft(llr), refDecodeSoft(c, refs[i], llr)
			if (got == nil) != (want == nil) {
				t.Fatalf("code %d, %d LLRs: nil mismatch: got %v, want %v", i, len(llr), got, want)
			}
			if string(got) != string(want) {
				t.Fatalf("code %d, %d LLRs: decoded bits differ\ngot  %v\nwant %v", i, len(llr), got, want)
			}
		}
	})
}

// BenchmarkDecodeSoft decodes one noisy 1000-bit codeword with each code,
// through the reference (ref) and the destination-major decoder (fast).
func BenchmarkDecodeSoft(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	msg := make([]byte, 1000)
	for i := range msg {
		msg[i] = byte(rng.Intn(2))
	}
	for _, tc := range []struct {
		name string
		c    *ConvCode
	}{{"r12", NewConvCodeR12()}, {"r13", NewConvCodeR13()}} {
		coded := tc.c.Encode(msg)
		llr := make([]float64, len(coded))
		for i, bit := range coded {
			llr[i] = 1 - 2*float64(bit) + rng.NormFloat64()
		}
		branches := refBranches(tc.c)
		b.Run("ref/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				decodeSink = refDecodeSoft(tc.c, branches, llr)
			}
		})
		b.Run("fast/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				decodeSink = tc.c.DecodeSoft(llr)
			}
		})
	}
}

var decodeSink []byte

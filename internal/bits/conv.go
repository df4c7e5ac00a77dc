package bits

import (
	"math"
	"sync"
)

// ConvCode is the LTE tail-biting-style convolutional code reduced to a
// zero-terminated rate-1/3 (optionally punctured to 1/2) code with
// constraint length 7 and the standard generator polynomials
// G0=133, G1=171, G2=165 (octal). Decoding is hard- or soft-decision Viterbi.
type ConvCode struct {
	rate  int // output bits per input bit before puncturing: 3
	gens  []uint32
	punct []bool // puncturing pattern over the rate-3 output, true=keep
	kept  int    // kept bits per pattern period

	// expect[ns][p] holds the expected +1/-1 outputs (LLR sign convention)
	// per kept bit on the branch into state ns from its predecessor p: 0 is
	// the lower predecessor ns>>1, 1 the upper ns>>1|32, both on input bit
	// ns&1. Built once at construction and read-only after, so a single
	// codec is safe for concurrent decodes.
	expect [numStates][2][3]float64
}

const constraintLen = 7

const numStates = 1 << (constraintLen - 1) // 64

// NewConvCodeR13 returns the rate-1/3 K=7 code.
func NewConvCodeR13() *ConvCode {
	c := &ConvCode{rate: 3, gens: []uint32{0o133, 0o171, 0o165}, punct: []bool{true, true, true}, kept: 3}
	c.initBranches()
	return c
}

// NewConvCodeR12 returns the K=7 code punctured to rate 1/2 (keeps G0 and G1
// of every triplet).
func NewConvCodeR12() *ConvCode {
	c := &ConvCode{rate: 3, gens: []uint32{0o133, 0o171, 0o165}, punct: []bool{true, true, false}, kept: 2}
	c.initBranches()
	return c
}

// initBranches precomputes the expected outputs of every trellis branch,
// indexed by destination state and predecessor.
func (c *ConvCode) initBranches() {
	for ns := uint32(0); ns < numStates; ns++ {
		for p := uint32(0); p < 2; p++ {
			reg := p<<6 | ns // predecessor (ns>>1 | p<<5) shifted left, plus input ns&1
			k := 0
			for g := 0; g < c.rate; g++ {
				if !c.punct[g] {
					continue
				}
				v := reg & c.gens[g]
				v ^= v >> 4
				v ^= v >> 2
				v ^= v >> 1
				if v&1 == 1 {
					c.expect[ns][p][k] = -1
				} else {
					c.expect[ns][p][k] = 1
				}
				k++
			}
		}
	}
}

// Rate returns (input bits, output bits) per pattern period.
func (c *ConvCode) Rate() (in, out int) { return 1, c.kept }

// EncodedLen returns the number of coded bits produced for n input bits
// (including the K-1 zero tail).
func (c *ConvCode) EncodedLen(n int) int { return (n + constraintLen - 1) * c.kept }

// Encode convolutionally encodes b (appending a K-1 zero tail to terminate
// the trellis) and returns the punctured coded bits.
func (c *ConvCode) Encode(b []byte) []byte {
	out := make([]byte, 0, c.EncodedLen(len(b)))
	var state uint32 // shift register, newest bit in LSB position 6..0
	emit := func(bit byte) {
		state = (state<<1 | uint32(bit)) & 0x7f
		for g := 0; g < c.rate; g++ {
			if !c.punct[g] {
				continue
			}
			v := state & c.gens[g]
			// parity of v
			v ^= v >> 4
			v ^= v >> 2
			v ^= v >> 1
			out = append(out, byte(v&1))
		}
	}
	for _, bit := range b {
		emit(bit & 1)
	}
	for i := 0; i < constraintLen-1; i++ {
		emit(0)
	}
	return out
}

// Decode runs hard-decision Viterbi over coded bits produced by Encode and
// returns the recovered n information bits (n = len(coded)/kept - (K-1)).
// Invalid lengths return nil.
func (c *ConvCode) Decode(coded []byte) []byte {
	llr := make([]float64, len(coded))
	for i, b := range coded {
		if b&1 == 1 {
			llr[i] = -1 // bit 1 → negative LLR convention
		} else {
			llr[i] = 1
		}
	}
	return c.DecodeSoft(llr)
}

// viterbiScratch holds the per-decode working set: two metric rows and the
// flat survivor matrix (indexed t*numStates+state). Pooled because the
// receive chain decodes one codeword per subframe per run.
type viterbiScratch struct {
	metric   [numStates]float64
	next     [numStates]float64
	survivor []uint16
}

var viterbiPool = sync.Pool{New: func() any { return new(viterbiScratch) }}

// DecodeSoft runs soft-decision Viterbi decoding. llr[i] > 0 means coded bit
// i is more likely 0; magnitude is confidence. Returns the information bits
// or nil if the length is not a whole number of steps.
func (c *ConvCode) DecodeSoft(llr []float64) []byte {
	if len(llr)%c.kept != 0 {
		return nil
	}
	steps := len(llr) / c.kept
	n := steps - (constraintLen - 1)
	if n <= 0 {
		return nil
	}
	scr := viterbiPool.Get().(*viterbiScratch)
	defer viterbiPool.Put(scr)
	if cap(scr.survivor) < steps*numStates {
		scr.survivor = make([]uint16, steps*numStates)
	}
	// survivor[t*numStates+state] = (prevState<<1)|inputBit
	survivor := scr.survivor[:steps*numStates]
	metric, next := &scr.metric, &scr.next
	neg := math.Inf(-1)
	for i := range metric {
		metric[i] = neg
	}
	metric[0] = 0
	for t := 0; t < steps; t++ {
		row := survivor[t*numStates : (t+1)*numStates]
		sym := llr[t*c.kept : (t+1)*c.kept]
		// Destination-major add-compare-select. The lower predecessor is
		// tried first and only a strictly better metric replaces the
		// running best, the first-wins tie order of a source-major walk;
		// each branch metric is summed onto the path metric term by term.
		// In the tail only zero inputs run, so odd states stay -Inf.
		step := uint32(1)
		if t >= n {
			step = 2
			for i := 1; i < numStates; i += 2 {
				next[i] = neg
			}
		}
		s0, s1 := sym[0], sym[1]
		var s2 float64
		if c.kept == 3 {
			s2 = sym[2]
		}
		for ns := uint32(0); ns < numStates; ns += step {
			p0, p1 := ns>>1, ns>>1|numStates/2
			e := &c.expect[ns]
			var m0, m1 float64
			if c.kept == 2 {
				m0 = metric[p0] + e[0][0]*s0 + e[0][1]*s1
				m1 = metric[p1] + e[1][0]*s0 + e[1][1]*s1
			} else {
				m0 = metric[p0] + e[0][0]*s0 + e[0][1]*s1 + e[0][2]*s2
				m1 = metric[p1] + e[1][0]*s0 + e[1][1]*s1 + e[1][2]*s2
			}
			in := uint16(ns & 1)
			best, sv := neg, row[ns]
			if m0 > best {
				best, sv = m0, uint16(p0)<<1|in
			}
			// The second compare goes either way about half the time, so it
			// selects through an all-ones or all-zeros mask, not a branch.
			var mask uint64
			if m1 > best {
				mask = ^uint64(0)
			}
			bb := math.Float64bits(best)
			bb ^= (bb ^ math.Float64bits(m1)) & mask
			sv ^= (sv ^ (uint16(p1)<<1 | in)) & uint16(mask)
			next[ns] = math.Float64frombits(bb)
			row[ns] = sv
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

// Package bits implements the bit-level machinery shared by the LTE PHY and
// the backscatter link: CRC attachment, pseudo-random bit sequences, the LTE
// Gold scrambling sequence, a convolutional codec with Viterbi decoding, and
// block interleaving.
//
// Bits are represented one-per-byte (values 0 or 1) throughout; pack/unpack
// helpers convert to dense bytes at the application boundary.
package bits

import (
	"fmt"
	"sync"
)

// Pack converts a 0/1-per-byte bit slice into dense bytes, MSB first. The
// final byte is zero-padded on the right.
func Pack(b []byte) []byte {
	out := make([]byte, (len(b)+7)/8)
	for i, v := range b {
		if v > 1 {
			panic(fmt.Sprintf("bits: non-bit value %d at index %d", v, i))
		}
		out[i/8] |= v << (7 - uint(i%8))
	}
	return out
}

// Unpack converts dense bytes into n bits, one per byte, MSB first.
// It panics if n exceeds 8*len(p).
func Unpack(p []byte, n int) []byte {
	if n > 8*len(p) {
		panic("bits: Unpack length exceeds input")
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = (p[i/8] >> (7 - uint(i%8))) & 1
	}
	return out
}

// CountDiff returns the Hamming distance between two equal-length bit slices.
func CountDiff(a, b []byte) int {
	if len(a) != len(b) {
		panic("bits: CountDiff length mismatch")
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// CRC16 computes the CRC-16-CCITT (polynomial 0x1021, init 0) over a bit
// slice, returning 16 CRC bits MSB first. This is LTE's CRC16 used for small
// transport blocks.
func CRC16(b []byte) []byte { return crcBits(b, 0x1021, 16) }

func crcBits(b []byte, poly uint32, width uint) []byte {
	var reg uint32
	mask := uint32(1)<<width - 1
	for _, bit := range b {
		fb := (reg>>(width-1))&1 ^ uint32(bit)
		reg = (reg << 1) & mask
		if fb == 1 {
			reg ^= poly & mask
		}
	}
	out := make([]byte, width)
	for i := uint(0); i < width; i++ {
		out[i] = byte((reg >> (width - 1 - i)) & 1)
	}
	return out
}

// AttachCRC16 returns b with its CRC16 appended.
func AttachCRC16(b []byte) []byte { return append(append([]byte(nil), b...), CRC16(b)...) }

// CheckCRC16 verifies a bit slice with trailing CRC16 and returns the payload
// and whether the check passed.
func CheckCRC16(b []byte) (payload []byte, ok bool) {
	if len(b) < 16 {
		return nil, false
	}
	payload = b[:len(b)-16]
	want := CRC16(payload)
	got := b[len(b)-16:]
	for i := range want {
		if want[i] != got[i] {
			return payload, false
		}
	}
	return payload, true
}

// PRBS generates n bits of the ITU PRBS-15 sequence (x^15 + x^14 + 1) from a
// nonzero 15-bit seed. It is the payload generator for throughput tests.
func PRBS(seed uint16, n int) []byte {
	state := seed & 0x7fff
	if state == 0 {
		state = 1
	}
	out := make([]byte, n)
	for i := range out {
		bit := (state>>14 ^ state>>13) & 1
		state = state<<1&0x7fff | bit
		out[i] = byte(bit)
	}
	return out
}

// GoldSequence generates n bits of the LTE pseudo-random sequence c(n)
// defined in 3GPP TS 36.211 §7.2: two length-31 m-sequences combined after
// the standard Nc=1600 warm-up, with x2 initialized from cinit. The
// m-sequences run in 31-bit register windows (bit i of the register holds
// x(pos+i)), so the only allocation is the output slice.
func GoldSequence(cinit uint32, n int) []byte {
	const nc = 1600
	// x1 has fixed init: x1(0)=1, rest 0. x1(i+31) = x1(i+3) ^ x1(i);
	// x2(i+31) = x2(i+3) ^ x2(i+2) ^ x2(i+1) ^ x2(i).
	r1 := uint32(1)
	r2 := cinit & 0x7fffffff
	for i := 0; i < nc; i++ {
		r1 = r1>>1 | ((r1>>3^r1)&1)<<30
		r2 = r2>>1 | ((r2>>3^r2>>2^r2>>1^r2)&1)<<30
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((r1 ^ r2) & 1)
		r1 = r1>>1 | ((r1>>3^r1)&1)<<30
		r2 = r2>>1 | ((r2>>3^r2>>2^r2>>1^r2)&1)<<30
	}
	return out
}

// BlockInterleaver permutes bits by writing row-wise into a matrix with the
// given number of columns and reading column-wise. It spreads burst errors
// across the codeword before Viterbi decoding.
type BlockInterleaver struct {
	cols  int
	perms sync.Map // int -> []int, memoized read-only permutations
}

// NewBlockInterleaver builds an interleaver with the given column count.
func NewBlockInterleaver(cols int) *BlockInterleaver {
	if cols < 1 {
		panic("bits: interleaver needs at least one column")
	}
	return &BlockInterleaver{cols: cols}
}

func (bi *BlockInterleaver) perm(n int) []int {
	if v, ok := bi.perms.Load(n); ok {
		return v.([]int)
	}
	rows := (n + bi.cols - 1) / bi.cols
	p := make([]int, 0, n)
	for c := 0; c < bi.cols; c++ {
		for r := 0; r < rows; r++ {
			idx := r*bi.cols + c
			if idx < n {
				p = append(p, idx)
			}
		}
	}
	v, _ := bi.perms.LoadOrStore(n, p)
	return v.([]int)
}

// Permutation returns the source-index permutation for length n:
// Interleave(b)[i] == b[Permutation(n)[i]]. The slice is memoized and shared
// between calls; callers must treat it as read-only.
func (bi *BlockInterleaver) Permutation(n int) []int { return bi.perm(n) }

// Interleave permutes b into a fresh slice.
func (bi *BlockInterleaver) Interleave(b []byte) []byte {
	p := bi.perm(len(b))
	out := make([]byte, len(b))
	for i, src := range p {
		out[i] = b[src]
	}
	return out
}

// Deinterleave inverts Interleave.
func (bi *BlockInterleaver) Deinterleave(b []byte) []byte {
	p := bi.perm(len(b))
	out := make([]byte, len(b))
	for i, dst := range p {
		out[dst] = b[i]
	}
	return out
}

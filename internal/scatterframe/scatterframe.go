// Package scatterframe implements forward error correction for the
// backscatter link: the paper transmits raw bits and reports BER; a
// deployment wants frames that survive the per-unit fading of the
// excitation. Payloads are CRC-16 protected, convolutionally encoded
// (K=7, rate 1/2) and block-interleaved so the Viterbi decoder sees the
// burst errors of excitation nulls as scattered ones.
//
// The coded frame halves the link's raw rate and in exchange delivers
// error-free frames at raw BERs where uncoded frames are hopeless — the A5
// ablation quantifies the trade.
package scatterframe

import (
	"lscatter/internal/bits"
)

// Codec is the backscatter-link FEC codec. It is stateless and safe for
// concurrent use.
type Codec struct {
	conv  *bits.ConvCode
	inter *bits.BlockInterleaver
}

// NewCodec builds the standard rate-1/2 codec with a 48-column interleaver
// (spreading bursts across ~50 units).
func NewCodec() *Codec {
	return &Codec{conv: bits.NewConvCodeR12(), inter: bits.NewBlockInterleaver(48)}
}

// EncodedLen returns the coded length for n payload bits.
func (c *Codec) EncodedLen(n int) int { return c.conv.EncodedLen(n + 16) }

// Encode protects payload bits: CRC-16, convolutional encoding,
// interleaving. The result is what the tag queues.
func (c *Codec) Encode(payload []byte) []byte {
	return c.inter.Interleave(c.conv.Encode(bits.AttachCRC16(payload)))
}

// Decode inverts Encode from the receiver's hard bit decisions. It returns
// the payload and whether the CRC verified.
func (c *Codec) Decode(coded []byte) ([]byte, bool) {
	dec := c.conv.Decode(c.inter.Deinterleave(coded))
	if dec == nil {
		return nil, false
	}
	return bits.CheckCRC16(dec)
}

package ue

import (
	"encoding/binary"
	"math"
	"testing"

	"lscatter/internal/enodeb"
	"lscatter/internal/ltephy"
)

// fuzzSamples reinterprets raw bytes as an int16-quantized IQ stream — the
// natural adversarial surface: this is exactly what an SDR front end hands
// the receiver. The length is capped so a single exec stays fast.
func fuzzSamples(data []byte) []complex128 {
	const maxSamples = 8192
	n := len(data) / 4
	if n > maxSamples {
		n = maxSamples
	}
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		re := int16(binary.LittleEndian.Uint16(data[4*i:]))
		im := int16(binary.LittleEndian.Uint16(data[4*i+2:]))
		out[i] = complex(float64(re)/32768, float64(im)/32768)
	}
	return out
}

// fuzzWaveformSeed emits two real subframes (sync + data) as int16 IQ bytes
// so the corpus starts from a decodable stream and the fuzzer mutates from
// there instead of never leaving the too-short error path.
func fuzzWaveformSeed() []byte {
	p := ltephy.Params{BW: ltephy.BW1_4, CellID: 7, Oversample: 2}
	e := enodeb.New(enodeb.Config{Params: p})
	var buf []byte
	for _, sf := range e.Stream(2) {
		for _, s := range sf.Samples {
			var b [4]byte
			binary.LittleEndian.PutUint16(b[0:2], uint16(int16(real(s)*8192)))
			binary.LittleEndian.PutUint16(b[2:4], uint16(int16(imag(s)*8192)))
			buf = append(buf, b[:]...)
		}
	}
	return buf
}

// FuzzEstimateCFO covers the open-loop CP correlator the tracking loop
// leans on: arbitrary IQ in, a finite (or zero) frequency out, no panics.
func FuzzEstimateCFO(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 4*3840))
	f.Add(fuzzWaveformSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		p := ltephy.Params{BW: ltephy.BW1_4, CellID: 7, Oversample: 2}
		est := EstimateCFO(p, fuzzSamples(data))
		if math.IsInf(est, 0) {
			t.Fatalf("infinite CFO estimate %v", est)
		}
	})
}

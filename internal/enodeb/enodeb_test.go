package enodeb

import (
	"math"
	"testing"

	"lscatter/internal/bits"
	"lscatter/internal/dsp"
	"lscatter/internal/ltephy"
	"lscatter/internal/modem"
	"lscatter/internal/rng"
)

func TestCodecRoundTripClean(t *testing.T) {
	p := ltephy.DefaultParams(ltephy.BW1_4)
	for _, scheme := range []modem.Scheme{modem.QPSK, modem.QAM16, modem.QAM64} {
		c := NewCodec(p, scheme)
		r := rng.New(42)
		dataREs := 800
		payload := r.Bits(make([]byte, c.TransportBlockSize(dataREs)))
		syms, err := c.Encode(3, payload, dataREs)
		if err != nil {
			t.Fatal(err)
		}
		if len(syms) != dataREs {
			t.Fatalf("%v: %d symbols for %d REs", scheme, len(syms), dataREs)
		}
		got, ok := c.Decode(3, syms, 0.1)
		if !ok {
			t.Fatalf("%v: clean decode failed CRC", scheme)
		}
		if bits.CountDiff(got, payload) != 0 {
			t.Fatalf("%v: clean decode corrupted payload", scheme)
		}
	}
}

func TestCodecRoundTripNoisy(t *testing.T) {
	p := ltephy.DefaultParams(ltephy.BW1_4)
	c := NewCodec(p, modem.QPSK)
	r := rng.New(43)
	dataREs := 1000
	payload := r.Bits(make([]byte, c.TransportBlockSize(dataREs)))
	syms, _ := c.Encode(1, payload, dataREs)
	// 7 dB SNR: raw QPSK BER ~1e-2; rate-1/2 K=7 Viterbi must clean it up.
	noiseVar := dsp.FromDB(-7)
	sigma := math.Sqrt(noiseVar / 2)
	for i := range syms {
		syms[i] += r.Complex(sigma)
	}
	got, ok := c.Decode(1, syms, noiseVar)
	if !ok {
		t.Fatal("decode at 7 dB SNR failed CRC")
	}
	if bits.CountDiff(got, payload) != 0 {
		t.Fatal("decode at 7 dB SNR corrupted payload")
	}
}

func TestCodecFailsAtVeryLowSNR(t *testing.T) {
	p := ltephy.DefaultParams(ltephy.BW1_4)
	c := NewCodec(p, modem.QAM64)
	r := rng.New(44)
	dataREs := 1000
	payload := r.Bits(make([]byte, c.TransportBlockSize(dataREs)))
	syms, _ := c.Encode(1, payload, dataREs)
	for i := range syms {
		syms[i] += r.Complex(1.0) // ~-3 dB SNR on 64-QAM: hopeless
	}
	if _, ok := c.Decode(1, syms, 2.0); ok {
		t.Fatal("CRC passed on a hopeless channel (undetected corruption)")
	}
}

func TestCodecRejectsWrongPayloadSize(t *testing.T) {
	p := ltephy.DefaultParams(ltephy.BW1_4)
	c := NewCodec(p, modem.QPSK)
	if _, err := c.Encode(0, make([]byte, 10), 1000); err == nil {
		t.Fatal("Encode accepted wrong payload size")
	}
}

func TestTransportBlockSizeScalesWithScheme(t *testing.T) {
	p := ltephy.DefaultParams(ltephy.BW5)
	qpsk := NewCodec(p, modem.QPSK).TransportBlockSize(1000)
	qam64 := NewCodec(p, modem.QAM64).TransportBlockSize(1000)
	if qam64 <= 2*qpsk {
		t.Fatalf("64QAM TBS %d not ~3x QPSK TBS %d", qam64, qpsk)
	}
}

func TestScramblingDiffersAcrossSubframes(t *testing.T) {
	p := ltephy.DefaultParams(ltephy.BW1_4)
	c := NewCodec(p, modem.QPSK)
	payload := make([]byte, c.TransportBlockSize(500))
	a, _ := c.Encode(0, payload, 500)
	b, _ := c.Encode(1, payload, 500)
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff < len(a)/4 {
		t.Fatalf("same payload nearly identical across subframes (%d of %d differ)", diff, len(a))
	}
}

func TestENodeBStreamStructure(t *testing.T) {
	e := New(DefaultConfig(ltephy.BW1_4))
	sfs := e.Stream(12)
	if len(sfs) != 12 {
		t.Fatalf("stream length %d", len(sfs))
	}
	for i, sf := range sfs {
		if sf.Index != i%10 {
			t.Fatalf("subframe %d has index %d", i, sf.Index)
		}
		want := e.Config().Params.Oversample * e.Config().Params.BW.SamplesPerSubframe()
		if len(sf.Samples) != want {
			t.Fatalf("subframe sample count %d, want %d", len(sf.Samples), want)
		}
	}
	// PSS present exactly in subframes 0 and 5.
	for i, sf := range sfs[:10] {
		has := false
		for _, kind := range sf.Grid.Kind[ltephy.PSSSymbolIndex] {
			if kind == ltephy.REPSS {
				has = true
			}
		}
		if has != (i == 0 || i == 5) {
			t.Fatalf("subframe %d PSS presence = %v", i, has)
		}
	}
}

func TestENodeBTxPowerScaling(t *testing.T) {
	cfg := DefaultConfig(ltephy.BW1_4)
	cfg.TxPowerDBm = 10 // 10 mW
	e := New(cfg)
	sf := e.NextSubframe()
	if p := dsp.Power(sf.Samples); math.Abs(p-0.01) > 0.003 {
		t.Fatalf("subframe power = %v W, want ~0.01", p)
	}
}

func TestENodeBContinuousTraffic(t *testing.T) {
	// Observation 1: LTE occupies 100% of subframes. Every subframe must
	// carry non-trivial energy in every symbol.
	e := New(DefaultConfig(ltephy.BW1_4))
	sf := e.NextSubframe()
	p := e.Config().Params
	n := p.BW.FFTSize() * p.Oversample
	mean := dsp.Power(sf.Samples)
	for l := 0; l < ltephy.SymbolsPerSubframe; l++ {
		start := ltephy.UsefulStart(p, l)
		symP := dsp.Power(sf.Samples[start : start+n])
		if symP < mean/10 {
			t.Fatalf("symbol %d nearly silent: %v vs mean %v", l, symP, mean)
		}
	}
}

func TestENodeBPayloadsVary(t *testing.T) {
	e := New(DefaultConfig(ltephy.BW1_4))
	a := e.NextSubframe()
	b := e.NextSubframe()
	if bits.CountDiff(a.Payload[:100], b.Payload[:100]) == 0 {
		t.Fatal("consecutive subframes carry identical payloads")
	}
}

func BenchmarkNextSubframe1_4MHz(b *testing.B) {
	e := New(DefaultConfig(ltephy.BW1_4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.NextSubframe()
	}
}

func BenchmarkCodecDecode5MHzQPSK(b *testing.B) {
	p := ltephy.DefaultParams(ltephy.BW5)
	c := NewCodec(p, modem.QPSK)
	r := rng.New(1)
	dataREs := 3000
	payload := r.Bits(make([]byte, c.TransportBlockSize(dataREs)))
	syms, _ := c.Encode(1, payload, dataREs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Decode(1, syms, 0.1); !ok {
			b.Fatal("decode failed")
		}
	}
}

func TestCacheTransparentAndHitsOnReplay(t *testing.T) {
	cfg := DefaultConfig(ltephy.BW1_4)
	cfg.Seed = 42

	// A nil shared cache falls through to the plain modulator.
	shared := ltephy.SharedCache
	ltephy.SharedCache = nil
	plain := New(cfg).Stream(12)
	ltephy.SharedCache = shared

	// First cached eNodeB populates the shared cache, the second replays the
	// identical stream from it; both must be bit-identical to the uncached
	// reference.
	for pass := 0; pass < 2; pass++ {
		before := ltephy.SharedCache.Stats()
		got := New(cfg).Stream(12)
		d := ltephy.SharedCache.Stats().Delta(before)
		if pass == 1 && d.Hits == 0 {
			t.Fatalf("replaying an identical stream produced no cache hits: %+v", d)
		}
		for i, sf := range got {
			if len(sf.Samples) != len(plain[i].Samples) {
				t.Fatalf("pass %d subframe %d: length %d vs %d", pass, i, len(sf.Samples), len(plain[i].Samples))
			}
			for j := range sf.Samples {
				if sf.Samples[j] != plain[i].Samples[j] {
					t.Fatalf("pass %d subframe %d: cached stream diverges at sample %d", pass, i, j)
				}
			}
		}
	}
}

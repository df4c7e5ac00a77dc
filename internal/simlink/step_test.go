package simlink

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/impair"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
	"lscatter/internal/tag"
)

// runFingerprint captures everything observable about a session run: a hash
// of every frame's RX samples, the tap waveforms, owners, records and the
// final stream position. The comparison is exact, not tolerance-based.
type runFingerprint struct {
	rx       [32]byte
	taps     [32]byte
	owners   []int
	recBits  int
	startEnd int
}

func hashInto(h []byte, x []complex128) [32]byte {
	buf := make([]byte, 16*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(buf[16*i:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(buf[16*i+8:], math.Float64bits(imag(v)))
	}
	return sha256.Sum256(append(h, buf...))
}

// stepTestSession builds a deliberately awkward chain: two TDMA tags (one
// parked), per-burst jitter, a multipath prefix chained into a fading stage,
// an opaque PathFunc on the direct path, and an ADC impairment pipeline.
func stepTestSession(fp *runFingerprint) *Session {
	cfg := enodeb.DefaultConfig(ltephy.BW1_4)
	cfg.Seed = 5
	p := cfg.Params
	r := rng.New(77)
	mods := []*tag.Modulator{
		tag.NewModulator(tag.ModConfig{Params: p, ID: 1, TimingErrorUnits: 1}),
		tag.NewModulator(tag.ModConfig{Params: p, ID: 2}),
	}
	for _, m := range mods {
		m.QueueBits(r.Bits(make([]byte, 30*m.PerSymbolBits())))
	}
	mp := channel.NewMultipath(r.Fork(2), channel.PedestrianProfile, p.SampleRate())
	fading := channel.NewFadingTrack(r.Fork(3), 0.9)
	jitter := impair.NewTimingJitter(impair.Config{
		Seed:   21,
		Jitter: impair.JitterConfig{Enabled: true, RMSSamples: 1.5},
	})
	pipe := impair.New(impair.Config{
		Seed: 22,
		ADC:  impair.ADCConfig{Enabled: true, Bits: 12},
	})
	// An opaque function stage on the direct path.
	scale := PathFunc(func(x []complex128) []complex128 {
		out := make([]complex128, len(x))
		for i, v := range x {
			out[i] = v * complex(0.9, 0)
		}
		return out
	})
	noiseW := 0.01 * math.Pow(10, -9)
	return &Session{
		Source: enodeb.New(cfg),
		Direct: Chain(GainDB(-40), scale),
		Tags: []*Tag{
			{Mod: mods[0], Path: Chain(mp, GainDB(-70), fading), Jitter: jitter, Park: true},
			{Mod: mods[1], Path: GainDB(-72)},
		},
		Owner: func(n int) int { return (n / 2) % 2 },
		Link:  channel.NewLink(r.Fork(4), noiseW, channel.WithImpairment(pipe)),
		Taps: Taps{
			Ambient: func(_ *Frame, x []complex128) {
				fp.taps = hashInto(fp.taps[:], x[:16])
			},
			Reflected: func(_ *Frame, tagIdx int, x []complex128) {
				fp.taps = hashInto(fp.taps[:], x[:16])
			},
		},
		Sink: SinkFunc(func(f *Frame) bool {
			fp.rx = hashInto(fp.rx[:], f.RX)
			fp.owners = append(fp.owners, f.Owner)
			for _, rec := range f.Records {
				fp.recBits += len(rec.Bits)
			}
			return true
		}),
	}
}

// TestStepFingerprint pins everything observable about eight subframes of
// the awkward session: the RX sha chain, the tap chain (which also pins the
// order Step fires the taps in), the owner schedule, the owner's record bits
// and the final stream position.
func TestStepFingerprint(t *testing.T) {
	var fp runFingerprint
	sess := stepTestSession(&fp)
	sess.Run(8)
	fp.startEnd = sess.StartSample()

	const (
		wantRX   = "c7b1c7892c05ed74be545be7bb7ff489460f6e97fc0958ceb8ecb209178f09f9"
		wantTaps = "d81f2f6b3585b39469d7cfbacaf7f2971b6cbcedfec3f0c5ccc456a293e4685d"
	)
	if got := hex.EncodeToString(fp.rx[:]); got != wantRX {
		t.Errorf("rx chain %s, want %s", got, wantRX)
	}
	if got := hex.EncodeToString(fp.taps[:]); got != wantTaps {
		t.Errorf("tap chain %s, want %s", got, wantTaps)
	}
	if got := fmt.Sprint(fp.owners); got != "[0 0 1 1 0 0 1 1]" {
		t.Errorf("owners %s, want [0 0 1 1 0 0 1 1]", got)
	}
	if fp.recBits != 4464 || fp.startEnd != 61440 {
		t.Errorf("recBits %d, final start %d; want 4464, 61440", fp.recBits, fp.startEnd)
	}
}

package ue

import (
	"math"
	"testing"

	"lscatter/internal/bits"
	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
	"lscatter/internal/tag"
)

// TestClosedLoopDeviceChain is the full-system test: the tag derives its
// frame timing from its own analog sync circuit (no injected offsets), parks
// until locked, then modulates; the UE demodulates against the true frame
// lattice. This exercises §3.1's central claim — the coarse, cheap analog
// synchronization plus the §3.2.3 slack and §3.3.2 offset search suffice for
// error-free demodulation.
func TestClosedLoopDeviceChain(t *testing.T) {
	cfg := enodeb.DefaultConfig(ltephy.BW1_4)
	enb := enodeb.New(cfg)
	p := cfg.Params
	dev := tag.NewDevice(p, tag.SyncConfig{}, tag.ModConfig{})
	payload := rng.New(3).Bits(make([]byte, 400*12*72))
	dev.QueueBits(payload)

	const subframes = 35
	sfLen := p.Oversample * p.BW.SamplesPerSubframe()
	ambient := make([]complex128, 0, subframes*sfLen)
	for i := 0; i < subframes; i++ {
		ambient = append(ambient, enb.NextSubframe().Samples...)
	}
	// Drive the device in awkward chunk sizes to exercise its buffering.
	var reflected []complex128
	for pos := 0; pos < len(ambient); {
		end := pos + 7777
		if end > len(ambient) {
			end = len(ambient)
		}
		reflected = append(reflected, dev.Process(ambient[pos:end])...)
		pos = end
	}
	if !dev.Synced() {
		t.Fatal("device never synchronized")
	}
	records := dev.Records()
	if len(records) == 0 {
		t.Fatal("device modulated nothing")
	}
	// Index the device's modulated bits by true subframe index.
	bySF := map[int]map[int][]byte{}
	firstModSF := subframes
	for _, rec := range records {
		trueSF := int(math.Round(float64(rec.SubframeStart) / float64(sfLen)))
		if rec.Bits == nil || rec.IsPreamble {
			continue
		}
		if bySF[trueSF] == nil {
			bySF[trueSF] = map[int][]byte{}
		}
		bySF[trueSF][rec.Symbol] = rec.Bits
		if trueSF < firstModSF {
			firstModSF = trueSF
		}
	}

	// Receive everything the device modulated.
	lteRx := NewLTEReceiver(p, cfg.Scheme)
	scfg := DefaultScatterConfig(p)
	sc := NewScatterDemod(scfg)
	r := rng.New(9)
	errs, total := 0, 0
	bursts := 0
	for sf := firstModSF; sf < subframes && (sf+1)*sfLen <= len(reflected); sf++ {
		sfIdx := sf % ltephy.SubframesPerFrame
		rx := channel.Combine(r, 0,
			applyGain(ambient[sf*sfLen:(sf+1)*sfLen], -40),
			applyGain(reflected[sf*sfLen:(sf+1)*sfLen], -68))
		lte, err := lteRx.ReceiveSubframe(rx, sfIdx)
		if err != nil || !lte.OK {
			t.Fatalf("subframe %d: LTE decode failed", sf)
		}
		burst := sfIdx == 0 || sfIdx == 5
		var res *ScatterResult
		if burst {
			res = sc.AcquireBurst(rx, lte.RefSamples, sfIdx, sf*sfLen)
			if res.Synced {
				bursts++
				d := sc.DemodSubframe(rx, lte.RefSamples, sfIdx, sf*sfLen, true)
				res.Decisions = d.Decisions
			}
		} else {
			res = sc.DemodSubframe(rx, lte.RefSamples, sfIdx, sf*sfLen, false)
		}
		for _, dec := range res.Decisions {
			if want, ok := bySF[sf][dec.Symbol]; ok && len(want) == len(dec.Bits) {
				errs += bits.CountDiff(dec.Bits, want)
				total += len(want)
			}
		}
	}
	if bursts == 0 {
		t.Fatal("no burst acquired from the self-synchronized device")
	}
	if total < 5000 {
		t.Fatalf("only %d bits compared", total)
	}
	if ber := float64(errs) / float64(total); ber > 1e-3 {
		t.Fatalf("closed-loop BER = %v (%d/%d)", ber, errs, total)
	}
	t.Logf("closed loop: %d bursts, %d bits, %d errors", bursts, total, errs)
}

// TestDeviceParksUntilSynced verifies the pre-lock behavior: the reflection
// before the first PSS lock must be the weak parked echo, with nothing in
// the shifted band.
func TestDeviceParksUntilSynced(t *testing.T) {
	cfg := enodeb.DefaultConfig(ltephy.BW1_4)
	enb := enodeb.New(cfg)
	p := cfg.Params
	dev := tag.NewDevice(p, tag.SyncConfig{}, tag.ModConfig{})
	sf := enb.NextSubframe()
	out := dev.Process(sf.Samples)
	if dev.Synced() {
		t.Fatal("device claims sync after 1 ms")
	}
	if len(out) != len(sf.Samples) {
		t.Fatalf("parked output %d samples for %d input", len(out), len(sf.Samples))
	}
	// Parked reflection is 10 dB below the modulator's nominal level
	// (default 6 dB reflection loss + 10 dB parked RCS reduction).
	ratioDB := 10 * math.Log10(power(out)/power(sf.Samples))
	if ratioDB > -15 || ratioDB < -17 {
		t.Fatalf("parked reflection at %v dB, want ~-16", ratioDB)
	}
}

func power(x []complex128) float64 {
	var p float64
	for _, v := range x {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	return p / float64(len(x))
}

package fleet_test

// Exact-mode parity: for small fleets, a session driven by the event-driven
// Bank must reproduce the Session's default per-sample TDMA bank's
// demodulated output — same decision bits, same per-tag ledgers — under
// every rung of the shared impairment ladder.
//
// The parity claim splits in two:
//
//   - Scheduling parity is bit-exact and is asserted exactly, everywhere:
//     with the closed-form aggregate disabled (audit mode) the bank's plans
//     drive the very same per-sample computations in the very same order as
//     the default TDMA bank, so any divergence is a scheduler bug.
//   - The closed-form parked aggregate is mathematically identical but not
//     float-associative: ambient*(sum of coefficients) rounds differently
//     than summing per-tag applications. The waveforms agree to ~1 ulp, far
//     below noise — but a decode sitting exactly on a threshold can land
//     either way, so at the marginal rung the demod output is compared
//     statistically instead of bit for bit.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/experiments"
	"lscatter/internal/fleet"
	"lscatter/internal/impair"
	"lscatter/internal/ltephy"
	"lscatter/internal/modem"
	"lscatter/internal/rng"
	"lscatter/internal/simlink"
	"lscatter/internal/tag"
	"lscatter/internal/ue"
)

type bankMode int

const (
	modeBuiltin bankMode = iota // no bank: the Session's default TDMA bank
	modeAudit                   // bank with the aggregate disabled
	modeBank                    // bank with closed-form aggregation
)

// equivSession builds the N-tag TDMA fixture: every tag parked when not
// owning, burst-aligned rotation, scalar two-hop paths — except the last
// tag, whose multipath path cannot fold into a scalar and must take the
// bank's per-sample ParkFull route.
func equivSession(n int, ic impair.Config, seed uint64, mode bankMode) (*simlink.Session, *simlink.DemodSink) {
	p := ltephy.DefaultParams(ltephy.BW1_4)
	sr := p.SampleRate()
	r := rng.New(seed)
	pl := channel.PathLoss{FreqHz: 680e6, Exponent: 2.0}

	enb := enodeb.New(enodeb.Config{Params: p, Scheme: modem.QPSK, TxPowerDBm: 30, Seed: seed})
	direct := channel.NewHop(r.Fork(1), pl, 12, 0, 0, nil)

	tags := make([]*simlink.Tag, n)
	for i := 0; i < n; i++ {
		mod := tag.NewModulator(tag.ModConfig{
			Params:           p,
			ReflectionLossDB: 6,
			TimingErrorUnits: int(r.NormFloat64() * 2),
			SampleOffset:     r.Intn(p.Oversample),
		})
		hop1 := channel.NewHop(r.Fork(uint64(10+2*i)), pl, 3, 6, 0, nil)
		var hop2 *channel.Hop
		if i == n-1 {
			// Non-scalar path: multipath forces the per-sample ParkFull
			// fallback in bank mode.
			mp := channel.NewMultipath(r.Fork(uint64(11+2*i)), channel.FlatProfile, sr)
			hop2 = channel.NewHop(r.Fork(uint64(400+i)), pl, 9, 6, 0, mp)
		} else {
			hop2 = channel.NewHop(r.Fork(uint64(400+i)), pl, 9, 6, 0, nil)
		}
		pay := r.Fork(uint64(600 + i))
		var jit *impair.TimingJitter
		if ic.Jitter.Enabled {
			jic := ic
			jic.Seed = seed ^ uint64(i)<<8
			jic.SampleRate = sr
			jit = impair.NewTimingJitter(jic)
		}
		m := mod
		tags[i] = &simlink.Tag{
			Mod:  m,
			Path: simlink.Chain(hop1, hop2),
			Feed: func(int, *tag.Modulator) {
				m.QueueBits(pay.Bits(make([]byte, 12*m.PerSymbolBits())))
			},
			Jitter: jit,
			Park:   true,
		}
	}

	occupied := float64(ltephy.BW1_4.Subcarriers()) * ltephy.SubcarrierSpacing
	noisePerSample := channel.NoiseFloorW(occupied, 7) * sr / occupied

	var pipe *impair.Pipeline
	var tracker *ue.CFOTracker
	if ic.Active() {
		lic := ic
		lic.Seed = seed ^ 0xa24baed4963ee407
		lic.SampleRate = sr
		pipe = impair.NewFor(lic, impair.SFO, impair.CFO, impair.Interference, impair.ADC)
		tracker = ue.NewCFOTracker(p, 0, ue.CFOTrackerConfig{})
	}

	owner := func(sfn int) int { return (sfn / 5) % n }
	sink := &simlink.DemodSink{
		LTE:            ue.NewLTEReceiver(p, modem.QPSK),
		Scatter:        ue.NewScatterDemod(ue.DefaultScatterConfig(p)),
		ResetEachBurst: true,
		CollectBits:    true,
	}
	sess := &simlink.Session{
		Source:  enb,
		Direct:  direct,
		Tags:    tags,
		Owner:   owner,
		Link:    channel.NewLink(r.Fork(7), noisePerSample, channel.WithImpairment(pipe)),
		Tracker: tracker,
		Sink:    sink,
	}
	if mode != modeBuiltin {
		fleet.Attach(sess, fleet.BankConfig{
			Config:      fleet.Config{MAC: fleet.TDMA, Seed: seed ^ 0xb},
			Owner:       owner,
			NoAggregate: mode == modeAudit,
		})
	}
	return sess, sink
}

const equivSubframes = 40

func equivSeed(n int) uint64 { return uint64(0x5ca1e<<8) ^ uint64(n) }

// TestBankMatchesBuiltinTDMA asserts scheduling parity bit for bit: an
// audit-mode bank (aggregate off) against the default TDMA bank, for every
// fleet size and impairment rung.
func TestBankMatchesBuiltinTDMA(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		for _, lvl := range experiments.ImpairmentLevels() {
			t.Run(fmt.Sprintf("n%d/%s", n, lvl.Name), func(t *testing.T) {
				seed := equivSeed(n)
				ref, refSink := equivSession(n, lvl.Impair, seed, modeBuiltin)
				bnk, bnkSink := equivSession(n, lvl.Impair, seed, modeAudit)
				ref.Run(equivSubframes)
				bnk.Run(equivSubframes)

				if !bytes.Equal(refSink.Bits, bnkSink.Bits) {
					t.Fatalf("demodulated bits diverge: %d vs %d bits", len(refSink.Bits), len(bnkSink.Bits))
				}
				if len(bnkSink.Accounts) != len(refSink.Accounts) {
					t.Fatalf("account keys diverge: bank %d tags, builtin %d", len(bnkSink.Accounts), len(refSink.Accounts))
				}
				for i, want := range refSink.Accounts {
					got := bnkSink.Accounts[i]
					if got == nil || *got != *want {
						t.Fatalf("tag %d ledger diverges: bank %+v, builtin %+v", i, got, want)
					}
				}
				if refSink.Totals().Total == 0 {
					t.Fatal("fixture degenerate: no bits compared")
				}
			})
		}
	}
}

// TestAggregateParity turns the closed-form aggregate on. At the healthy
// rungs the demod output still matches bit for bit; at the marginal rung
// (severe) the comparison is statistical — same sync, ledgers for every
// tag, and BER within noise of the reference.
func TestAggregateParity(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		for _, lvl := range experiments.ImpairmentLevels() {
			exact := lvl.Name != "severe"
			t.Run(fmt.Sprintf("n%d/%s", n, lvl.Name), func(t *testing.T) {
				seed := equivSeed(n)
				ref, refSink := equivSession(n, lvl.Impair, seed, modeBuiltin)
				bnk, bnkSink := equivSession(n, lvl.Impair, seed, modeBank)
				ref.Run(equivSubframes)
				bnk.Run(equivSubframes)

				if exact {
					if !bytes.Equal(refSink.Bits, bnkSink.Bits) {
						t.Fatalf("demodulated bits diverge: %d vs %d bits", len(refSink.Bits), len(bnkSink.Bits))
					}
					for i, want := range refSink.Accounts {
						got := bnkSink.Accounts[i]
						if got == nil || *got != *want {
							t.Fatalf("tag %d ledger diverges: bank %+v, builtin %+v", i, got, want)
						}
					}
					return
				}
				if bnkSink.Synced != refSink.Synced {
					t.Fatalf("sync diverges: bank %v, builtin %v", bnkSink.Synced, refSink.Synced)
				}
				rb, bb := refSink.Totals(), bnkSink.Totals()
				if rb.Total == 0 || bb.Total == 0 {
					t.Fatalf("degenerate totals: builtin %+v, bank %+v", rb, bb)
				}
				if d := math.Abs(rb.BER() - bb.BER()); d > 0.02 {
					t.Fatalf("BER diverges beyond noise: builtin %.4f, bank %.4f", rb.BER(), bb.BER())
				}
			})
		}
	}
}

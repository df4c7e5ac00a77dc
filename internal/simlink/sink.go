package simlink

import (
	"lscatter/internal/ltephy"
	"lscatter/internal/ue"
)

// BitAccount is the sent-vs-decided ledger for one tag: how many data bits
// the receiver compared against the tag's transmit records, and how many of
// them were sliced wrong.
type BitAccount struct {
	// Errs counts mismatched bits.
	Errs int
	// Total counts compared bits.
	Total int
}

// BER returns the measured bit error rate, or 0.5 (coin-flip) when no bits
// were compared — the convention every chain consumer in this repository
// uses for a link that never produced a measurement.
func (a BitAccount) BER() float64 {
	if a.Total == 0 {
		return 0.5
	}
	return float64(a.Errs) / float64(a.Total)
}

// DemodSink is the standard receiver-side Sink: per subframe it runs the
// direct-path LTE receiver, regenerates the clean excitation reference, and
// when the LTE decode succeeds drives the backscatter demodulator — burst
// acquisition on burst subframes, tracked demodulation on the rest — then
// settles the per-tag sent-vs-decided bit accounts against the owning tag's
// symbol records. Every end-to-end consumer (core exact mode, the ablation
// and error-pattern chains, the examples) is this sink under different
// policy knobs.
type DemodSink struct {
	// LTE decodes the direct path and regenerates the reference (required).
	LTE *ue.LTEReceiver
	// Scatter demodulates the hybrid band; nil makes the sink LTE-only
	// (e.g. measuring backscatter's impact on LTE's own throughput).
	Scatter *ue.ScatterDemod

	// HoldOnLTEError freezes the session's stream-position counter when the
	// LTE receiver returns an error (legacy core-chain semantics, pinned by
	// the golden end-to-end vectors). Leave false for new chains: the
	// stream position then tracks the physical sample stream regardless of
	// decode outcomes.
	HoldOnLTEError bool
	// ResetEachBurst drops burst state before every burst acquisition, so
	// each burst is acquired from scratch — required when TDMA hands the
	// channel to a different tag each burst.
	ResetEachBurst bool
	// RecordPattern appends each compared bit's error indicator to Pattern
	// in transmit order (codec ablations replay coded framings over it).
	RecordPattern bool
	// CollectBits appends every demodulated decision bit to Bits, matched
	// or not — the receive path of a real payload transfer.
	CollectBits bool

	// OnLTE fires after the LTE receive of every subframe (res may be nil
	// when err != nil). OnSync fires when a burst preamble is acquired,
	// before the burst subframe is demodulated. Each may be nil.
	OnLTE  func(f *Frame, res *ue.LTEResult, err error)
	OnSync func(f *Frame, res *ue.ScatterResult)

	// LTEOK counts subframes whose transport block decoded.
	LTEOK int
	// Synced latches once any burst preamble has been acquired.
	Synced bool
	// Accounts holds the per-tag bit ledgers, keyed by the owning tag's
	// index in Session.Tags.
	Accounts map[int]*BitAccount
	// Pattern is the per-bit error indicator stream (RecordPattern).
	Pattern []bool
	// Bits is the raw demodulated bit stream (CollectBits).
	Bits []byte
}

// Account returns the ledger for the given tag index, creating it on first
// use.
func (k *DemodSink) Account(tagIdx int) *BitAccount {
	if k.Accounts == nil {
		k.Accounts = map[int]*BitAccount{}
	}
	a := k.Accounts[tagIdx]
	if a == nil {
		a = &BitAccount{}
		k.Accounts[tagIdx] = a
	}
	return a
}

// Totals sums every tag's ledger into one account.
func (k *DemodSink) Totals() BitAccount {
	var t BitAccount
	for _, a := range k.Accounts {
		t.Errs += a.Errs
		t.Total += a.Total
	}
	return t
}

// Consume implements Sink.
func (k *DemodSink) Consume(f *Frame) bool {
	if f.Reacquired && k.Scatter != nil {
		// The carrier loop lost lock: decision-feedback state (burst sync,
		// channel estimate) predates the frequency snap — drop it and let
		// the next burst re-acquire.
		k.Scatter.Reset()
	}
	lte, err := k.LTE.ReceiveSubframe(f.RX, f.Subframe.Index)
	if k.OnLTE != nil {
		k.OnLTE(f, lte, err)
	}
	if err != nil {
		return !k.HoldOnLTEError
	}
	if lte.OK {
		k.LTEOK++
	}
	var res *ue.ScatterResult
	if k.Scatter != nil && lte.OK {
		if f.Burst {
			if k.ResetEachBurst {
				k.Scatter.Reset()
			}
			res = k.Scatter.AcquireBurst(f.RX, lte.RefSamples, f.Subframe.Index, f.Start)
			if res.Synced {
				k.Synced = true
				if k.OnSync != nil {
					k.OnSync(f, res)
				}
				d := k.Scatter.DemodSubframe(f.RX, lte.RefSamples, f.Subframe.Index, f.Start, true)
				res.Decisions = d.Decisions
			}
		} else {
			res = k.Scatter.DemodSubframe(f.RX, lte.RefSamples, f.Subframe.Index, f.Start, false)
		}
	}
	if res == nil {
		return true
	}
	if k.CollectBits {
		for _, dec := range res.Decisions {
			k.Bits = append(k.Bits, dec.Bits...)
		}
	}
	k.settle(f, res)
	return true
}

// settle compares the demodulated decisions against the owning tag's symbol
// records bit by bit, in transmit order.
func (k *DemodSink) settle(f *Frame, res *ue.ScatterResult) {
	if len(f.Records) == 0 || len(res.Decisions) == 0 {
		return
	}
	var byBits map[int][]byte
	for _, rec := range f.Records {
		if rec.Bits != nil && !rec.IsPreamble {
			if byBits == nil {
				byBits = map[int][]byte{}
			}
			byBits[rec.Symbol] = rec.Bits
		}
	}
	acct := k.Account(f.Owner)
	for _, dec := range res.Decisions {
		want, ok := byBits[dec.Symbol]
		if !ok || len(want) != len(dec.Bits) {
			continue
		}
		for i := range want {
			bad := want[i] != dec.Bits[i]
			if bad {
				acct.Errs++
			}
			acct.Total++
			if k.RecordPattern {
				k.Pattern = append(k.Pattern, bad)
			}
		}
	}
}

// LTESink measures the LTE downlink's own goodput through the chain — the
// receiver's view when it ignores the backscatter band entirely. PerSubframe
// collects delivered transport-block bits per second, one sample per
// subframe (zero when the decode fails).
type LTESink struct {
	// LTE is the direct-path receiver (required).
	LTE *ue.LTEReceiver
	// PerSubframe accumulates the per-subframe goodput samples in bits/s.
	PerSubframe []float64
}

// Consume implements Sink.
func (k *LTESink) Consume(f *Frame) bool {
	res, err := k.LTE.ReceiveSubframe(f.RX, f.Subframe.Index)
	bitsOK := 0.0
	if err == nil && res.OK {
		bitsOK = float64(len(res.Payload))
	}
	k.PerSubframe = append(k.PerSubframe, bitsOK/ltephy.SubframeDuration)
	return true
}

// Package simlink is the staged, streaming link-pipeline engine behind
// every end-to-end LScatter chain in this repository. The paper's system is
// one fixed signal path — eNodeB excitation, tag reflection, two-hop
// channel, noise and front-end impairment, carrier tracking, LTE reference
// regeneration, scatter demodulation — and simlink expresses it as a chain
// of explicit stages advanced subframe-by-subframe by a Session:
//
//	Source ──► [Tag × N] ──► PathStage(s) ──► channel.Link ──► CFOTracker ──► Sink
//	 eNodeB     modulate /     hops, gains,    combine paths     optional        LTE decode +
//	 subframe   park (TDMA)    multipath       + noise (+impair) carrier loop    ScatterDemod +
//	 stream                                                                      bit accounting
//
// core.Run's exact mode, the experiment chains (ablations, LTE-impact,
// interference PSD, sync-accuracy sweeps), the examples and the IQ exporter
// all construct Sessions instead of hand-rolling the loop; they differ only
// in which stages they plug in and which Sink consumes the result.
//
// Three properties are contractual:
//
//   - Determinism. Stages draw randomness only from the rng.Source streams
//     handed to them at construction, in a fixed per-subframe order (tag
//     payload feed, per-burst jitter, path application, receiver noise,
//     impairments), and Session.Step runs every stage in one documented
//     order on the calling goroutine. A Session is therefore
//     bit-reproducible; parallelism runs across independent Sessions, one
//     level up (internal/experiments' worker pool).
//
//   - Streaming with bounded buffers. A Session holds no history: each Step
//     materializes one subframe's waveforms, hands them to the Sink, and
//     drops them. Memory is O(one subframe) regardless of session length,
//     which is what lets the same engine serve both a 4 ms example and an
//     hours-long trace.
//
//   - Multi-tag TDMA as a first-class concept. A Session owns N Tags and an
//     ownership schedule; the scheduled tag modulates, the others park their
//     switch (tag.Modulator.ParkedSubframe), exactly the §6 spectrum-sharing
//     extension. Every subframe is planned through a TagBank: the default
//     TDMA bank reads Session.Owner and Tag.Park, and Session.Bank swaps in
//     an external fleet scheduler (internal/fleet).
//
// The stage taps (Taps) expose intermediate waveforms — the ambient
// excitation, each tag's raw reflection — without perturbing the chain;
// cmd/lscatter-iq and the interference-PSD experiment are tap consumers.
//
// The Streamer (stream.go) is a separate engine for the fixed-gain
// transport core: it precomputes per-unit Q1.15 composite words
// (internal/fxp) so the steady-state loop is a select-and-add per four
// samples; it is the engine behind the real-time-factor numbers in
// docs/PERFORMANCE.md.
package simlink

import (
	"math"

	"lscatter/internal/enodeb"
	"lscatter/internal/ltephy"
)

// Source produces the ambient excitation stream, one subframe per call.
// *enodeb.ENodeB satisfies it directly; any stand-in (a recorded capture, a
// different radio access technology) can be slotted in.
type Source interface {
	NextSubframe() *enodeb.Subframe
}

// PathStage propagates a waveform segment through one hop of the medium and
// returns the product. Implementations must be deterministic per call (draw
// construction-time randomness only) and must not retain x.
// channel.Hop, channel.Multipath and channel.FadingTrack satisfy PathStage.
type PathStage interface {
	Apply(x []complex128) []complex128
}

// PathFunc adapts a plain function to a PathStage.
type PathFunc func(x []complex128) []complex128

// Apply implements PathStage.
func (f PathFunc) Apply(x []complex128) []complex128 { return f(x) }

// chain applies stages left to right.
type chainStage []PathStage

func (c chainStage) Apply(x []complex128) []complex128 {
	for _, s := range c {
		x = s.Apply(x)
	}
	return x
}

// Chain composes hops into one PathStage applied left to right — e.g. the
// two-hop backscatter path Chain(eNodeBToTag, tagToUE). Nil stages are
// skipped; Chain() is the identity.
func Chain(stages ...PathStage) PathStage {
	out := make(chainStage, 0, len(stages))
	for _, s := range stages {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// gainStage scales a waveform by a fixed amplitude.
type gainStage struct{ g complex128 }

func (s gainStage) Apply(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = v * s.g
	}
	return out
}

// GainDB is a fixed power gain in dB (negative = loss): the abstract stand-in
// for a propagation path when an experiment pins the link budget directly
// instead of deriving it from geometry.
func GainDB(db float64) PathStage {
	return gainStage{g: complex(math.Pow(10, db/20), 0)}
}

// Identity passes a waveform through untouched (no copy).
var Identity PathStage = PathFunc(func(x []complex128) []complex128 { return x })

// IsBurstSubframe reports whether subframe index idx (0..9) opens a 5 ms
// backscatter burst: the tag re-synchronizes on each PSS, which LTE
// transmits in subframes 0 and 5, and leads the burst with its preamble
// symbol (§3.3.2).
func IsBurstSubframe(idx int) bool {
	return idx == 0 || idx == ltephy.SubframesPerFrame/2
}

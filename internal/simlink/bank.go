package simlink

import (
	"lscatter/internal/channel"
)

// BankPlan is one subframe's scheduling outcome from a TagBank: which tags
// transmit, which are full-simulated, and the closed-form remainder.
//
// The frame's propagation paths are assembled in a fixed, documented order —
// direct path, then every named tag (Owner, Interferers, ParkFull merged) in
// tag-index order, then one synthetic ambient*ParkScale path — so a plan
// that names every tag reproduces the default TDMA bank bit for bit.
type BankPlan struct {
	// Owner is the index (into Session.Tags) of the tag that modulates
	// payload this subframe; -1 leaves the subframe without a backscatter
	// transmitter (an idle or analytically-resolved collision slot). The
	// owner's symbol records land in Frame.Records exactly as under the
	// default TDMA bank.
	Owner int
	// Interferers lists additional tags transmitting concurrently (capture
	// losers under a contention MAC). They are full-simulated — their
	// modulated reflections arrive at the receiver as interference — but
	// their records are not attached to the Frame.
	Interferers []int
	// ParkFull lists parked tags that must still be simulated per sample
	// because their Path does not reduce to one complex gain (multipath,
	// fading). Tags listed here contribute Modulator.ParkedSubframe through
	// their Path, exactly as under the default TDMA bank.
	ParkFull []int
	// ParkScale is the aggregate parked-echo coefficient of every remaining
	// parked tag, computed in closed form by the bank (per-tag parked gain
	// times the scalar gain of its path, summed). The engine contributes a
	// single ambient*ParkScale path instead of len(parked) per-sample
	// simulations; zero contributes nothing.
	ParkScale complex128
}

// TagBank decides, per subframe, which of the Session's tags transmit and
// which reflect their parked echo. Every Step plans through one: the default
// TDMA bank (Session.Owner modulates, every other tag with Park set echoes
// per sample) unless Session.Bank installs an external scheduler
// (internal/fleet). A fleet bank hands the engine a closed-form aggregate
// for the parked rest, which turns the tag stage's cost from O(all tags)
// into O(transmitting tags): the engine synthesizes waveforms only for the
// tags the plan names.
//
// PlanSubframe is called exactly once per subframe, in subframe order — a
// bank may keep per-tag state machines and draw from its own RNG streams
// and remains deterministic. The returned index lists must be deterministic
// for a given call sequence and must not alias bank-internal storage that
// later calls mutate before the subframe is consumed.
type TagBank interface {
	PlanSubframe(n int, burst bool) BankPlan
}

// tdmaBank is the default TagBank: Session.Owner (tag 0 when nil) modulates
// and every other tag with Park set contributes its parked echo per sample.
type tdmaBank struct{ s *Session }

// PlanSubframe implements TagBank.
func (b tdmaBank) PlanSubframe(n int, _ bool) BankPlan {
	pl := BankPlan{Owner: -1}
	if len(b.s.Tags) == 0 {
		return pl
	}
	pl.Owner = 0
	if b.s.Owner != nil {
		pl.Owner = b.s.Owner(n)
	}
	for i, t := range b.s.Tags {
		if i != pl.Owner && t.Park {
			pl.ParkFull = append(pl.ParkFull, i)
		}
	}
	return pl
}

// ScalarGain reports whether stage s reduces to a single complex
// amplitude multiply — i.e. applying it to any waveform equals scaling the
// waveform by the returned coefficient — and returns that coefficient.
// Identity/nil stages are scalar with gain 1; fixed gains, fading-free hops
// and chains of scalar stages compose by multiplication. Multipath,
// fading tracks and opaque PathFuncs are not scalar.
//
// The fleet bank uses this to decide, per tag, between the closed-form
// parked-echo aggregate and the per-sample fallback.
func ScalarGain(s PathStage) (complex128, bool) {
	switch v := s.(type) {
	case nil:
		return 1, true
	case gainStage:
		return v.g, true
	case *channel.Hop:
		if v.Fading == nil {
			return v.Gain(), true
		}
	case chainStage:
		g := complex(1, 0)
		for _, c := range v {
			cg, ok := ScalarGain(c)
			if !ok {
				return 0, false
			}
			g *= cg
		}
		return g, true
	}
	return 0, false
}

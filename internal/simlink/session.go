package simlink

import (
	"sort"

	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/impair"
	"lscatter/internal/tag"
	"lscatter/internal/ue"
)

// Tag is one backscatter device in a Session: the modulator plus everything
// that decides what it reflects each subframe.
type Tag struct {
	// Mod is the device's phase modulator (required).
	Mod *tag.Modulator
	// Path is the tag→UE propagation applied to the reflection (often
	// Chain(eNodeBToTagHop, tagToUEHop)); nil passes the reflection through
	// unchanged.
	Path PathStage
	// Feed, when set, is called once per owned subframe before modulation to
	// queue payload bits — the streaming alternative to queueing everything
	// up front. n is the session-relative subframe count.
	Feed func(n int, m *tag.Modulator)
	// Jitter, when set, injects per-burst timing wander: at each burst
	// opening the modulator's residual timing error is re-drawn as the
	// static calibration base plus Jitter.Next() (the tag re-synchronizes on
	// each burst-opening PSS, so the wander holds across a burst's
	// subframes — which is also what the UE's per-burst offset acquisition
	// can absorb).
	Jitter *impair.TimingJitter
	// Park controls what the tag reflects in subframes it does not own:
	// true contributes the parked-switch echo (Modulator.ParkedSubframe),
	// false contributes nothing at all.
	Park bool

	baseTiming int
	baseSet    bool
}

// base returns the tag's static residual timing error, captured on first use
// so burst jitter wanders around the calibration point.
func (t *Tag) base() int {
	if !t.baseSet {
		t.baseTiming = t.Mod.TimingError()
		t.baseSet = true
	}
	return t.baseTiming
}

// Frame is one subframe's trip through the chain, handed to the Sink.
type Frame struct {
	// N is the session-relative subframe count, starting at 0.
	N int
	// Subframe is the Source's output (index, grid, ambient samples,
	// transport-block payload).
	Subframe *enodeb.Subframe
	// Burst reports whether this subframe opens a backscatter burst.
	Burst bool
	// Owner is the index (into Session.Tags) of the tag scheduled to
	// modulate this subframe; -1 when the session has no tags.
	Owner int
	// Records lists what the owning tag embedded into each OFDM symbol
	// (nil when the session has no tags).
	Records []tag.SymbolRecord
	// RX is the waveform at the receiver: all paths combined, noise and
	// impairments applied, carrier tracking (if any) removed. With no
	// channel.Link configured it aliases the ambient samples directly.
	RX []complex128
	// Start is the absolute sample position of this subframe in the
	// receiver's stream (the phase anchor for CFO correction and the
	// scatter demodulator).
	Start int
	// Reacquired reports that the carrier-recovery loop lost lock on this
	// subframe and snapped to a new estimate; decision-feedback state that
	// predates the snap (burst sync, channel estimate) is stale.
	Reacquired bool
}

// Sink consumes the received stream. The returned advance flag controls the
// session's stream-position counter: true (the normal case) advances Start
// past this subframe; false holds it (a conformance quirk of the legacy core
// chain, which kept its sample counter frozen across LTE receiver errors —
// see DemodSink.HoldOnLTEError).
type Sink interface {
	Consume(f *Frame) (advance bool)
}

// SinkFunc adapts a plain function to a Sink.
type SinkFunc func(f *Frame) bool

// Consume implements Sink.
func (fn SinkFunc) Consume(f *Frame) bool { return fn(f) }

// Taps observe intermediate waveforms without perturbing the chain. Each tap
// may be nil. Tapped slices are owned by the pipeline: copy before retaining
// past the callback.
type Taps struct {
	// Ambient sees the Source's transmit waveform each subframe.
	Ambient func(f *Frame, x []complex128)
	// Reflected sees each modulating/parked tag's raw reflection (before
	// its Path is applied). tagIdx indexes Session.Tags.
	Reflected func(f *Frame, tagIdx int, x []complex128)
}

// Session wires stages into a runnable end-to-end chain and advances it
// subframe by subframe. The zero value is not usable: Source is required,
// everything else is optional (a Session with only a Source and a Sink is a
// transparent monitor of the downlink).
//
// A Session is single-stream sequential state and is not safe for concurrent
// use; run concurrent scenarios on distinct Sessions (stages included).
type Session struct {
	// Source produces the ambient excitation (required).
	Source Source
	// Direct is the eNodeB→UE direct path; nil omits the direct path from
	// the combine (a receiver in the tag's shadow).
	Direct PathStage
	// Tags are the backscatter devices sharing the excitation.
	Tags []*Tag
	// Owner schedules TDMA ownership: it maps the session-relative subframe
	// count to the index of the tag that modulates. Nil means tag 0 owns
	// every subframe. It must return an index into Tags, or -1 for no
	// transmitter.
	Owner func(n int) int
	// Link is the receiver front end: it combines the arriving paths, adds
	// thermal noise and applies the impairment pipeline. Nil short-circuits
	// the receiver — RX aliases the ambient waveform untouched (for
	// tag-side consumers like the sync circuit, and for taps-only
	// sessions).
	Link *channel.Link
	// Tracker is the optional closed carrier-recovery loop applied to the
	// combined stream before the Sink.
	Tracker *ue.CFOTracker
	// Sink consumes each received Frame; nil discards the stream (the taps
	// still fire).
	Sink Sink
	// Taps optionally observe intermediate waveforms.
	Taps Taps
	// Bank, when set, replaces the default TDMA bank with an external
	// fleet scheduler: it decides per subframe which tags transmit (and are
	// full-simulated) and hands the engine a closed-form coefficient for
	// the parked rest, making the tag stage O(transmitting tags) instead of
	// O(all tags). Owner and each Tag's Park flag are ignored while a Bank
	// is installed. internal/fleet provides the implementation; see
	// docs/FLEET.md.
	Bank TagBank

	n     int
	start int
}

// Subframes returns how many subframes the session has advanced.
func (s *Session) Subframes() int { return s.n }

// StartSample returns the receiver stream position (see Frame.Start).
func (s *Session) StartSample() int { return s.start }

// contribKind says how one tag contribution of a subframe turns into a
// propagation path.
type contribKind uint8

const (
	// contribOwner is the scheduled transmitter: it modulates payload and
	// its symbol records land on the Frame.
	contribOwner contribKind = iota
	// contribInterferer is an additional concurrent transmitter named by a
	// TagBank (a capture loser): modulated per sample, records dropped.
	contribInterferer
	// contribParked is a per-sample parked-switch echo.
	contribParked
	// contribAggregate is the closed-form parked remainder: one
	// ambient*scale path standing in for every analytically-advanced tag.
	contribAggregate
)

// contrib is one tag's reflection within a subframe (or, for
// contribAggregate, the whole parked remainder's).
type contrib struct {
	tagIdx int
	kind   contribKind
	scale  complex128 // contribAggregate only
	plan   tag.Plan   // contribOwner / contribInterferer only
	x      []complex128
}

// bank returns the installed TagBank, or the default TDMA bank over Owner
// and each Tag's Park flag.
func (s *Session) bank() TagBank {
	if s.Bank != nil {
		return s.Bank
	}
	return tdmaBank{s}
}

// planTag performs the stateful per-tag front half for one transmitting tag
// — payload feed, per-burst jitter draw, modulation planning — and returns
// its contribution. Owner records land on the Frame.
func (s *Session) planTag(f *Frame, i int, kind contribKind) contrib {
	t := s.Tags[i]
	if t.Feed != nil {
		t.Feed(f.N, t.Mod)
	}
	if t.Jitter != nil && f.Burst {
		t.Mod.SetTimingError(t.base() + t.Jitter.Next())
	}
	pl := t.Mod.PlanSubframe(f.Subframe.Index, f.Burst)
	if kind == contribOwner {
		f.Records = pl.Records
	}
	return contrib{tagIdx: i, kind: kind, plan: pl}
}

// plan asks the bank who transmits this subframe and plans every named tag.
// Per-tag contributions combine in tag-index order; the closed-form
// aggregate, standing in for every remaining parked tag, sums last.
func (s *Session) plan(f *Frame) []contrib {
	bp := s.bank().PlanSubframe(f.N, f.Burst)
	f.Owner = bp.Owner
	var cs []contrib
	if bp.Owner >= 0 {
		cs = append(cs, s.planTag(f, bp.Owner, contribOwner))
	}
	for _, i := range bp.Interferers {
		cs = append(cs, s.planTag(f, i, contribInterferer))
	}
	for _, i := range bp.ParkFull {
		cs = append(cs, contrib{tagIdx: i, kind: contribParked})
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].tagIdx < cs[b].tagIdx })
	if bp.ParkScale != 0 {
		cs = append(cs, contrib{tagIdx: -1, kind: contribAggregate, scale: bp.ParkScale})
	}
	return cs
}

// Step advances the chain by one subframe and returns the consumed Frame.
// The stages run in a fixed order: source, tag plan, reflections, the
// Ambient tap, the direct path, then per contribution in tag-index order
// the Reflected tap and that tag's path, the receiver, the tracker, the
// Sink, and the stream-position advance.
func (s *Session) Step() *Frame {
	sf := s.Source.NextSubframe()
	f := &Frame{
		N:        s.n,
		Subframe: sf,
		Burst:    IsBurstSubframe(sf.Index),
		Start:    s.start,
	}
	s.n++
	amb := sf.Samples
	cs := s.plan(f)
	for k := range cs {
		c := &cs[k]
		switch c.kind {
		case contribAggregate:
			c.x = gainStage{g: c.scale}.Apply(amb)
		case contribParked:
			c.x = s.Tags[c.tagIdx].Mod.ParkedSubframe(amb)
		default:
			c.x = s.Tags[c.tagIdx].Mod.ApplyPlan(amb, c.plan)
		}
	}
	if s.Taps.Ambient != nil {
		s.Taps.Ambient(f, amb)
	}

	paths := make([][]complex128, 0, len(cs)+1)
	if s.Direct != nil {
		paths = append(paths, s.Direct.Apply(amb))
	}
	for _, c := range cs {
		if c.kind == contribAggregate {
			// The analytic parked remainder belongs to no single tag: its
			// path gains are already folded into the scale, and the
			// per-tag Reflected tap does not see it.
			paths = append(paths, c.x)
			continue
		}
		if s.Taps.Reflected != nil {
			s.Taps.Reflected(f, c.tagIdx, c.x)
		}
		x := c.x
		if p := s.Tags[c.tagIdx].Path; p != nil {
			x = p.Apply(x)
		}
		paths = append(paths, x)
	}

	f.RX = amb
	if s.Link != nil {
		f.RX = s.Link.Receive(paths...)
	}
	if s.Tracker != nil {
		f.RX, f.Reacquired = s.Tracker.Process(f.RX, f.Start)
	}
	if s.Sink == nil || s.Sink.Consume(f) {
		s.start += len(amb)
	}
	return f
}

// Run advances the chain n subframes.
func (s *Session) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// RunUntil advances the chain until done reports true or max subframes have
// been consumed, whichever comes first, and returns the number of subframes
// advanced. done is checked before each step.
func (s *Session) RunUntil(max int, done func() bool) int {
	ran := 0
	for ; ran < max && !done(); ran++ {
		s.Step()
	}
	return ran
}

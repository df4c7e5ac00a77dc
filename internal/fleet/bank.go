package fleet

import (
	"fmt"
	"math"

	"lscatter/internal/rng"
	"lscatter/internal/simlink"
)

// BankConfig parameterizes an exact-mode fleet bank attached to a
// simlink.Session.
type BankConfig struct {
	// Config supplies the MAC parameters and seed.
	Config
	// Owner overrides the TDMA schedule (subframe count -> tag index).
	// Nil rotates ownership slot by slot. Ignored by the contention MACs.
	Owner func(n int) int
	// RxPowerW maps a tag index to its received backscatter signal power in
	// watts, for capture arbitration. Nil derives a power from the tag's
	// modulated reflection amplitude and the scalar gain of its path
	// (unit-gain for paths that do not reduce to a scalar).
	RxPowerW func(tag int) float64
	// NoiseW is the receiver noise floor used in capture SINR; 0 models an
	// interference-limited receiver.
	NoiseW float64
	// Threshold is the fleet size above which AutoBank installs the bank;
	// at or below it the session's default O(all tags) TDMA bank wins on
	// constant factors. Defaults to 64.
	Threshold int
	// Force makes AutoBank install the bank regardless of fleet size.
	Force bool
	// NoAggregate disables the closed-form parked aggregate: every parked
	// tag is full-simulated per sample (audit mode). Since the engine
	// assembles bank contributions in tag-index order, an audit-mode bank
	// reproduces the default TDMA bank bit for bit — the scheduling layer
	// alone, with the aggregation optimization out of the loop. O(all
	// tags) again; testing only.
	NoAggregate bool
}

// BankStats counts what the bank scheduled.
type BankStats struct {
	// Slots is the number of arbitration slots decided.
	Slots int64
	// ActiveSlots counts slots with at least one transmission attempt;
	// Deliveries the slots with a decodable owner; Collisions the
	// non-captured collisions (resolved analytically, no waveforms);
	// CaptureWins the deliveries that survived a collision via capture.
	ActiveSlots int64
	Deliveries  int64
	Collisions  int64
	CaptureWins int64
	// Events is the number of scheduler heap events processed.
	Events int64
}

// Bank is the exact-mode fleet scheduler: a simlink.TagBank that
// full-simulates only the tags transmitting in each slot and folds every
// parked tag with a scalar path into one closed-form aggregate-echo
// coefficient, maintained incrementally in O(transmitting) per slot.
//
// Contention MACs resolve non-captured collisions analytically: no waveform
// is synthesized for a collided slot, the colliders back off, and their
// echoes ride in the parked aggregate for that slot (a collided burst is
// never decoded, so its exact waveform is irrelevant to the sink; the
// approximation is that colliders contribute a parked-strength rather than
// modulated-strength echo to the noise floor).
type Bank struct {
	tags []*simlink.Tag
	cfg  BankConfig

	// Parked-echo bookkeeping: coeff[i] is tag i's closed-form parked
	// contribution (parked gain times the scalar path gain), total their
	// sum over scalar parked tags, parkFull the parked tags that need
	// per-sample simulation (non-scalar paths).
	coeff    []complex128
	scalar   []bool
	total    complex128
	parkFull []int

	sched *sched
	power func(int32) float64

	// Current slot's decision, held across its subframes.
	curSlot   int64
	curOwner  int
	curInterf []int

	started bool
	lastN   int
	scratch []int // per-subframe ParkFull scratch

	stats BankStats
}

// NewBank builds an exact-mode bank over the session's tags. The tag wiring
// (Path, Park) must not change after construction — the closed-form parked
// coefficients are computed once here.
func NewBank(tags []*simlink.Tag, cfg BankConfig) *Bank {
	cfg.Config = cfg.Config.withDefaults()
	if cfg.Threshold <= 0 {
		cfg.Threshold = 64
	}
	if len(tags) >= 1<<tagBits {
		panic(fmt.Sprintf("fleet: Bank supports up to %d tags, got %d", 1<<tagBits-1, len(tags)))
	}
	b := &Bank{
		tags:     tags,
		cfg:      cfg,
		coeff:    make([]complex128, len(tags)),
		scalar:   make([]bool, len(tags)),
		curOwner: -1,
		curSlot:  -1,
	}
	for i, t := range tags {
		g, ok := simlink.ScalarGain(t.Path)
		if cfg.NoAggregate {
			ok = false
		}
		b.scalar[i] = ok
		if ok {
			b.coeff[i] = complex(t.Mod.ParkedGain(), 0) * g
			if t.Park {
				b.total += b.coeff[i]
			}
		} else if t.Park {
			b.parkFull = append(b.parkFull, i)
		}
	}
	b.sched = newSched(len(tags), cfg.Config, rng.New(cfg.Seed).Fork(0x3ac5))
	b.power = func(tag int32) float64 {
		if cfg.RxPowerW != nil {
			return cfg.RxPowerW(int(tag))
		}
		// Modulated reflection amplitude is the parked amplitude with the
		// 10 dB parked attenuation restored, through the scalar path gain
		// (unit gain when the path does not reduce to a scalar).
		amp := b.tags[tag].Mod.ParkedGain()
		if b.scalar[tag] {
			amp = complexAbs(b.coeff[tag])
		}
		amp *= math.Sqrt(10)
		return amp * amp
	}
	return b
}

func complexAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

// Attach builds a bank over the session's tags and installs it as the
// session's tag stage.
func Attach(s *simlink.Session, cfg BankConfig) *Bank {
	b := NewBank(s.Tags, cfg)
	s.Bank = b
	return b
}

// AutoBank installs a bank when the fleet is large enough to profit
// (len(Tags) > Threshold) or when cfg.Force is set, and returns it; small
// fleets keep the session's default TDMA bank and get nil back.
func AutoBank(s *simlink.Session, cfg BankConfig) *Bank {
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = 64
	}
	if !cfg.Force && len(s.Tags) <= threshold {
		return nil
	}
	return Attach(s, cfg)
}

// Offer enqueues msgs pending messages for a tag, making it contend from the
// next slot on (contention MACs; the TDMA schedule ignores backlog). The
// payload bits themselves travel through the tag's Feed hook / bit queue as
// usual — Offer drives only the scheduler's notion of who wants the channel.
func (b *Bank) Offer(tag int, msgs int) {
	b.sched.offer(int32(tag), int32(msgs), b.curSlot)
}

// Stats returns the scheduling counters accumulated so far.
func (b *Bank) Stats() BankStats {
	st := b.stats
	st.Events = b.sched.events
	return st
}

// decideSlot arbitrates one contention slot.
func (b *Bank) decideSlot(slot int64) {
	b.curSlot = slot
	b.curOwner = -1
	b.curInterf = b.curInterf[:0]
	b.stats.Slots++

	if b.cfg.MAC == TDMA {
		if len(b.tags) > 0 {
			b.curOwner = int(slot % int64(len(b.tags)))
			b.stats.Deliveries++
			b.stats.ActiveSlots++
		}
		return
	}

	contenders := b.sched.collect(slot)
	if len(contenders) == 0 {
		return
	}
	out := b.sched.decide(slot, contenders, b.power, b.cfg.NoiseW)
	if out.winner < 0 && !out.collided {
		return
	}
	b.stats.ActiveSlots++
	if out.collided {
		// Semi-analytic collision fast path: nobody decodes, nothing is
		// synthesized. The colliders' state machines have already backed
		// off inside decide.
		b.stats.Collisions++
		return
	}
	b.curOwner = int(out.winner)
	b.stats.Deliveries++
	if len(out.losers) > 0 {
		b.stats.CaptureWins++
		for _, l := range out.losers {
			b.curInterf = append(b.curInterf, int(l))
		}
	}
}

// PlanSubframe implements simlink.TagBank: it advances the slot state
// machine at slot boundaries and assembles the subframe's plan — owner,
// capture-loser interferers, per-sample parked stragglers, and the
// closed-form aggregate for everyone else — in O(transmitting + |ParkFull|).
func (b *Bank) PlanSubframe(n int, burst bool) simlink.BankPlan {
	if !b.started || n%b.cfg.SlotSubframes == 0 {
		b.started = true
		b.decideSlot(int64(n / b.cfg.SlotSubframes))
	}
	b.lastN = n

	var pl simlink.BankPlan
	if b.cfg.MAC == TDMA && b.cfg.Owner != nil {
		// An explicit TDMA schedule is honored per subframe, exactly like
		// the session's default TDMA bank.
		b.curOwner = b.cfg.Owner(n)
	}
	pl.Owner = b.curOwner
	pl.Interferers = b.curInterf

	// Aggregate parked echo: total minus the transmitting tags' parked
	// coefficients (they are full-simulated this subframe, not parked).
	scale := b.total
	sub := func(i int) {
		if i >= 0 && i < len(b.tags) && b.tags[i].Park && b.scalar[i] {
			scale -= b.coeff[i]
		}
	}
	sub(pl.Owner)
	for _, i := range pl.Interferers {
		sub(i)
	}
	pl.ParkScale = scale

	// Parked tags that need per-sample simulation, minus any that are
	// transmitting right now.
	if len(b.parkFull) > 0 {
		b.scratch = b.scratch[:0]
		for _, i := range b.parkFull {
			if i == pl.Owner || containsInt(pl.Interferers, i) {
				continue
			}
			b.scratch = append(b.scratch, i)
		}
		pl.ParkFull = b.scratch
	}
	return pl
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

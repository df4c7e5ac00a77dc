package fleet

import (
	"fmt"
	"math"

	"lscatter/internal/rng"
	"lscatter/internal/stats"
)

// SimConfig parameterizes a semi-analytic fleet run: no waveforms are
// synthesized, and delivery resolves through the link budget and
// stats.BERFromSNR. Arrivals are a nonhomogeneous Poisson process shaped by
// the venue's diurnal activity profile.
type SimConfig struct {
	// Config supplies the MAC parameters and seed.
	Config
	// Tags is the fleet size.
	Tags int
	// SlotSec is one contention slot in seconds. The default 0.005 matches
	// the 5 ms backscatter burst.
	SlotSec float64
	// DurationSec is the simulated horizon.
	DurationSec float64
	// StartHour is the hour of day at which the horizon opens (fractional
	// hours allowed); it phases the Activity profile.
	StartHour float64
	// MsgPerTagHour is each tag's mean offered load, in messages per hour,
	// at activity level 1. Ignored when TotalMsgPerSec is set.
	MsgPerTagHour float64
	// TotalMsgPerSec, when positive, fixes the fleet's aggregate offered
	// load (messages per second at activity 1) regardless of Tags — the
	// "same city demand spread over more parked tags" scaling used by the
	// parked-heavy benchmarks.
	TotalMsgPerSec float64
	// Activity maps hour-of-day to a demand level in [0, 1] (the diurnal
	// shape, e.g. traffic.VenueActivity). Nil means constant 1.
	Activity func(hour float64) float64
	// MsgBits is the payload carried by one delivered slot.
	MsgBits int
	// RxPowerW maps a tag index to its backscatter received signal power in
	// watts (deterministic; consulted lazily, only for tags that transmit).
	// Nil treats every tag as equal-power, which disables capture wins.
	RxPowerW func(tag int) float64
	// NoiseW is the receiver noise floor in watts.
	NoiseW float64
}

func (c SimConfig) withDefaults() SimConfig {
	c.Config = c.Config.withDefaults()
	if c.SlotSec <= 0 {
		c.SlotSec = 0.005
	}
	if c.MsgBits <= 0 {
		c.MsgBits = 96
	}
	return c
}

// Report summarizes one semi-analytic fleet run.
type Report struct {
	// Tags and Slots give the run's scale: fleet size and slot horizon.
	Tags  int
	Slots int64
	// Events counts heap events processed — the engine's actual work,
	// the O(N*samples) -> O(events) story in one number.
	Events int64
	// Arrivals, Delivered and Dropped count messages offered, decoded and
	// rejected by full queues. Backlog is what remained queued at the end.
	Arrivals  int64
	Delivered int64
	Dropped   int64
	Backlog   int64
	// ActiveSlots counts slots with at least one transmission; Collisions
	// counts the non-captured ones among them; CaptureWins counts slots
	// decoded only thanks to capture (>= 2 transmitters).
	ActiveSlots int64
	Collisions  int64
	CaptureWins int64
	// CollisionRate is Collisions / ActiveSlots (0 when nothing
	// transmitted).
	CollisionRate float64
	// GoodputBps is delivered payload bits per second after BER erasure.
	GoodputBps float64
	// MeanBER is the delivery-weighted mean bit error rate.
	MeanBER float64
	// LatencyMs holds arrival-to-delivery latency percentiles.
	LatencyMsP50 float64
	LatencyMsP90 float64
	LatencyMsP99 float64
}

// Sim is a reusable semi-analytic fleet engine: the million-entry per-tag
// arrays are allocated once and recycled across runs, so sweeping a fleet
// over several hour-windows (the city-scale artifact) costs one allocation,
// not one per window. Runs are deterministic for a given seed and call
// sequence — each Run forks fresh RNG streams from the engine's root.
type Sim struct {
	cfg  SimConfig
	root *rng.Source
	s    *sched
	lat  []float64 // latency scratch, recycled across runs
}

// NewSim allocates the engine for a fleet of cfg.Tags. The per-run horizon
// and phase are passed to Run; cfg.StartHour and cfg.DurationSec serve only
// as Simulate's single-run parameters.
func NewSim(cfg SimConfig) *Sim {
	cfg = cfg.withDefaults()
	if cfg.Tags <= 0 {
		panic("fleet: Sim needs at least one tag")
	}
	if cfg.Tags > MaxTags {
		panic(fmt.Sprintf("fleet: Sim supports up to %d tags, got %d", MaxTags, cfg.Tags))
	}
	root := rng.New(cfg.Seed)
	return &Sim{cfg: cfg, root: root, s: newSched(cfg.Tags, cfg.Config, nil)}
}

// Simulate runs the event-driven fleet engine with no waveform synthesis:
// slots with no scheduled activity are skipped entirely (the engine jumps
// the clock to the next event), so the cost is O(events), independent of how
// many tags sit parked. Deterministic for a given config.
func Simulate(cfg SimConfig) Report {
	return NewSim(cfg).Run(cfg.StartHour, cfg.DurationSec)
}

// Run simulates one window: durationSec seconds starting at hour-of-day
// startHour. The scheduler state is reset (queues drained, backoff cleared)
// and fresh RNG streams are forked, so windows are independent; only the
// arrays are shared.
func (m *Sim) Run(startHour, durationSec float64) Report {
	cfg := m.cfg
	rArr := m.root.Fork(0xa221) // arrival process
	rMac := m.root.Fork(0x3ac5) // MAC draws (persistence, backoff)
	s := m.s
	s.reset(rMac)

	endSlot := int64(math.Ceil(durationSec / cfg.SlotSec))
	rep := Report{Tags: cfg.Tags, Slots: endSlot}

	// Aggregate arrival process: one exponential stream at the fleet's peak
	// rate, thinned by the diurnal activity level, each accepted arrival
	// assigned to a uniform tag. O(1) per arrival, nothing per tag.
	ratePerSec := cfg.TotalMsgPerSec
	if ratePerSec <= 0 {
		ratePerSec = float64(cfg.Tags) * cfg.MsgPerTagHour / 3600
	}
	activity := cfg.Activity
	peak := 1.0
	if activity != nil {
		peak = 0
		for h := 0; h < 24; h++ {
			if a := activity(float64(h) + 0.5); a > peak {
				peak = a
			}
		}
		if peak <= 0 {
			peak = 1
		}
	}
	peakRate := ratePerSec * peak
	hourAt := func(slot int64) float64 {
		return startHour + float64(slot)*cfg.SlotSec/3600
	}

	// nextArrival advances the thinned Poisson stream from the given time
	// (in seconds) and returns the next accepted arrival's slot.
	nextArrival := func(fromSec float64) (float64, int64, bool) {
		if peakRate <= 0 {
			return 0, 0, false
		}
		t := fromSec
		for {
			t += rArr.ExpFloat64() / peakRate
			slot := int64(t / cfg.SlotSec)
			if slot >= endSlot {
				return 0, 0, false
			}
			if activity == nil || rArr.Float64()*peak < activity(hourAt(slot)) {
				return t, slot, true
			}
		}
	}

	power := cfg.RxPowerW
	pw := func(tag int32) float64 {
		if power == nil {
			return 1
		}
		return power(int(tag))
	}

	lat := m.lat[:0]
	var berSum float64
	var bitsSum float64

	arrT, arrSlot, arrOK := nextArrival(0)
	for {
		// The clock jumps to the earliest pending activity: an arrival or
		// a scheduled contention event. Idle slots in between cost nothing.
		evSlot, evOK := s.nextEventSlot()
		if !evOK && !arrOK {
			break
		}
		slot := evSlot
		if !evOK || (arrOK && arrSlot < slot) {
			slot = arrSlot
		}
		if slot >= endSlot {
			break
		}

		// Deliver every arrival landing in this slot (eligible to contend
		// from the next slot on), then arbitrate the slot.
		for arrOK && arrSlot == slot {
			tag := int32(rArr.Intn(cfg.Tags))
			rep.Arrivals++
			s.offer(tag, 1, slot)
			arrT, arrSlot, arrOK = nextArrival(arrT)
		}

		contenders := s.collect(slot)
		if len(contenders) == 0 {
			continue
		}
		out := s.decide(slot, contenders, pw, cfg.NoiseW)
		if out.winner < 0 && !out.collided {
			continue
		}
		rep.ActiveSlots++
		if out.collided {
			rep.Collisions++
			continue
		}
		if len(out.losers) > 0 {
			rep.CaptureWins++
		}
		rep.Delivered++
		ber := stats.BERFromSNR(out.sinr)
		if math.IsInf(out.sinr, 1) {
			ber = 0
		}
		berSum += ber
		bitsSum += float64(cfg.MsgBits) * (1 - ber)
		lat = append(lat, float64(slot-out.arrivedAt+1)*cfg.SlotSec*1000)
	}

	rep.Events = s.events
	rep.Dropped = s.dropped
	// Only tags the run touched can hold backlog — O(touched), not O(fleet).
	for _, tag := range s.dirty {
		rep.Backlog += int64(s.queued[tag])
	}
	m.lat = lat // keep the grown scratch for the next run
	if rep.ActiveSlots > 0 {
		rep.CollisionRate = float64(rep.Collisions) / float64(rep.ActiveSlots)
	}
	if durationSec > 0 {
		rep.GoodputBps = bitsSum / durationSec
	}
	if rep.Delivered > 0 {
		rep.MeanBER = berSum / float64(rep.Delivered)
	}
	if len(lat) > 0 {
		rep.LatencyMsP50 = stats.Percentile(lat, 50)
		rep.LatencyMsP90 = stats.Percentile(lat, 90)
		rep.LatencyMsP99 = stats.Percentile(lat, 99)
	}
	return rep
}

package fleet

import (
	"math"

	"lscatter/internal/rng"
)

// The scheduler advances a fleet by events, not by tags: every future action
// — a contention attempt, a TDMA turn, a backoff expiry — is one entry in a
// min-heap of packed uint64 events, and a slot in which nothing is scheduled
// costs nothing. Per-tag state lives in flat arrays (structure-of-arrays) so
// a million-tag fleet is a few value slices, not a million objects.

// tagBits is the width of the tag-index field in a packed event. 2^21 tags
// (~2M) is comfortably above the million-tag design point; the remaining 43
// bits of slot index cover ~1,100 years of 5 ms slots.
const tagBits = 21

// MaxTags is the largest fleet the engine supports: the widest tag index a
// packed event can carry.
const MaxTags = 1<<tagBits - 1

// eventTagMask extracts the tag index from a packed event.
const eventTagMask = 1<<tagBits - 1

// packEvent packs (slot, tag) so that uint64 ordering sorts by slot first,
// then tag index — the heap's comparison is a single integer compare.
func packEvent(slot int64, tag int32) uint64 {
	return uint64(slot)<<tagBits | uint64(tag)
}

// eventHeap is a hand-rolled binary min-heap of packed events. container/heap
// would cost an interface indirection per sift step on the engine's hottest
// queue.
type eventHeap []uint64

func (h *eventHeap) push(e uint64) {
	*h = append(*h, e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *eventHeap) pop() uint64 {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	*h = a[:n]
	a = a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && a[l] < a[s] {
			s = l
		}
		if r < n && a[r] < a[s] {
			s = r
		}
		if s == i {
			break
		}
		a[i], a[s] = a[s], a[i]
		i = s
	}
	return top
}

// sched is the per-tag state machine core of the semi-analytic engine:
// message queues, backoff windows, and the event queue that decides which
// tags contend in which slot.
type sched struct {
	mac MAC
	n   int32
	r   *rng.Source
	ev  eventHeap

	// Per-tag state, structure-of-arrays.
	queued  []int32 // pending messages
	pending []bool  // tag has a contention event in the heap
	boExp   []uint8 // consecutive-collision count (backoff exponent)
	headAt  []int64 // arrival slot of the head-of-queue message

	// overflowAt holds arrival slots beyond the head for the (few) tags
	// whose queue is deeper than one message.
	overflowAt map[int32][]int64

	// dirty lists the tags whose state has diverged from zero. offer is the
	// only way a tag acquires state (contenders, losers and reschedules all
	// descend from an offer), so marking there covers everything — and reset
	// becomes O(touched), not O(fleet).
	dirty   []int32
	isDirty []bool

	// contenders is the scratch list of tags eligible in the current slot.
	contenders []int32

	// Counters surfaced in the Sim's Report.
	events  int64 // heap events processed
	dropped int64 // arrivals rejected by a full queue
}

func newSched(tags int, mac MAC, r *rng.Source) *sched {
	return &sched{
		mac:        mac,
		n:          int32(tags),
		r:          r,
		queued:     make([]int32, tags),
		pending:    make([]bool, tags),
		boExp:      make([]uint8, tags),
		headAt:     make([]int64, tags),
		overflowAt: make(map[int32][]int64),
		isDirty:    make([]bool, tags),
	}
}

// reset returns the scheduler to its post-construction state without
// releasing the per-tag arrays — the point of reusing a million-tag
// scheduler across runs.
func (s *sched) reset(r *rng.Source) {
	s.r = r
	s.ev = s.ev[:0]
	for _, tag := range s.dirty {
		s.queued[tag] = 0
		s.pending[tag] = false
		s.boExp[tag] = 0
		s.headAt[tag] = 0
		s.isDirty[tag] = false
	}
	s.dirty = s.dirty[:0]
	for k := range s.overflowAt {
		delete(s.overflowAt, k)
	}
	s.events = 0
	s.dropped = 0
}

// turnSlot returns the first slot strictly after `after` in which the TDMA
// rotation reaches the tag.
func (s *sched) turnSlot(tag int32, after int64) int64 {
	next := after + 1
	d := (int64(tag) - next) % int64(s.n)
	if d < 0 {
		d += int64(s.n)
	}
	return next + d
}

// schedule pushes a contention event for the tag at or after the given slot,
// respecting the MAC's notion of when the tag may next transmit. A tag has
// at most one contention event in the heap at a time.
func (s *sched) schedule(tag int32, slot int64) {
	if s.pending[tag] {
		return
	}
	if s.mac == TDMA {
		slot = s.turnSlot(tag, slot-1)
	}
	s.pending[tag] = true
	s.ev.push(packEvent(slot, tag))
}

// offer enqueues messages for a tag arriving at the given slot. The tag's
// first contention opportunity is the following slot (the arrival lands
// mid-slot, after this slot's arbitration). Returns how many messages were
// accepted (the rest dropped by the queue cap).
func (s *sched) offer(tag int32, msgs int32, slot int64) int32 {
	if msgs <= 0 {
		return 0
	}
	room := maxQueue - s.queued[tag]
	if msgs > room {
		s.dropped += int64(msgs - room)
		msgs = room
	}
	if msgs <= 0 {
		return 0
	}
	if !s.isDirty[tag] {
		s.isDirty[tag] = true
		s.dirty = append(s.dirty, tag)
	}
	if s.queued[tag] == 0 {
		s.headAt[tag] = slot
		if msgs > 1 {
			ov := s.overflowAt[tag]
			for i := int32(1); i < msgs; i++ {
				ov = append(ov, slot)
			}
			s.overflowAt[tag] = ov
		}
	} else {
		ov := s.overflowAt[tag]
		for i := int32(0); i < msgs; i++ {
			ov = append(ov, slot)
		}
		s.overflowAt[tag] = ov
	}
	s.queued[tag] += msgs
	s.schedule(tag, slot+1)
	return msgs
}

// nextEventSlot returns the slot of the earliest queued event, or false when
// the heap is empty.
func (s *sched) nextEventSlot() (int64, bool) {
	if len(s.ev) == 0 {
		return 0, false
	}
	return int64(s.ev[0] >> tagBits), true
}

// collect pops every event due at or before the slot and returns the list of
// tags contending in it, sorted by tag index (successive heap pops are
// non-decreasing in the packed key, so same-slot events emerge in tag
// order). Stale events (the tag's queue drained since the event was pushed)
// are discarded. The returned slice is scheduler scratch, valid until the
// next collect.
func (s *sched) collect(slot int64) []int32 {
	s.contenders = s.contenders[:0]
	for len(s.ev) > 0 && int64(s.ev[0]>>tagBits) <= slot {
		e := s.ev.pop()
		s.events++
		tag := int32(e & eventTagMask)
		s.pending[tag] = false
		if s.queued[tag] > 0 {
			s.contenders = append(s.contenders, tag)
		}
	}
	return s.contenders
}

// outcome is one slot's arbitration result.
type outcome struct {
	// winner is the tag that transmits and decodes this slot; -1 when the
	// slot is idle or a non-captured collision.
	winner int32
	// losers are tags that transmitted but lost arbitration (capture
	// losers, or every collider under plain ALOHA).
	losers []int32
	// collided reports a non-captured collision (>= 2 transmitters, no
	// decodable winner).
	collided bool
	// sinr is the winner's post-arbitration SINR (linear); 0 with no
	// winner.
	sinr float64
	// arrivedAt is the arrival slot of the winner's delivered message.
	arrivedAt int64
}

// decide arbitrates one slot among the collected contenders and advances the
// per-tag state machines: capture arbitration, queue pops for the winner,
// backoff for losers, and rescheduling. Every contender transmits (the ALOHA
// MACs are 1-persistent). power maps a tag index to its received signal
// power in watts (only consulted when transmissions overlap under
// AlohaCapture); noiseW is the receiver noise floor in the same units. All RNG draws happen in sorted tag order, so the
// outcome is deterministic for a given call sequence.
func (s *sched) decide(slot int64, contenders []int32, power func(int32) float64, noiseW float64) outcome {
	out := outcome{winner: -1}
	if len(contenders) == 0 {
		return out
	}
	switch {
	case len(contenders) == 1:
		w := contenders[0]
		out.winner = w
		if power != nil {
			p := power(w)
			if noiseW > 0 {
				out.sinr = p / noiseW
			} else {
				out.sinr = math.Inf(1)
			}
		}
	case s.mac == AlohaCapture:
		// Capture: the strongest collider decodes if its SINR over the
		// others clears the threshold (ties break to the lowest index).
		var sum float64
		best, bestP := int32(-1), math.Inf(-1)
		for _, tag := range contenders {
			p := 1.0
			if power != nil {
				p = power(tag)
			}
			sum += p
			if p > bestP {
				best, bestP = tag, p
			}
		}
		sinr := bestP / (sum - bestP + noiseW)
		if sinr >= math.Pow(10, captureDB/10) {
			out.winner = best
			out.sinr = sinr
			for _, tag := range contenders {
				if tag != best {
					out.losers = append(out.losers, tag)
				}
			}
		} else {
			out.collided = true
			out.losers = contenders
		}
	default:
		// Plain slotted ALOHA (and the degenerate TDMA double-booking,
		// which the turn rotation makes impossible): every overlap is a
		// collision.
		out.collided = true
		out.losers = contenders
	}

	if w := out.winner; w >= 0 {
		out.arrivedAt = s.headAt[w]
		s.queued[w]--
		s.boExp[w] = 0
		if s.queued[w] > 0 {
			ov := s.overflowAt[w]
			s.headAt[w] = ov[0]
			if len(ov) > 1 {
				copy(ov, ov[1:])
				s.overflowAt[w] = ov[:len(ov)-1]
			} else {
				delete(s.overflowAt, w)
			}
			s.schedule(w, slot+1)
		}
	}
	for _, tag := range out.losers {
		if s.boExp[tag] < backoffMaxExp {
			s.boExp[tag]++
		}
		w := backoffSlots << (s.boExp[tag] - 1)
		s.schedule(tag, slot+1+int64(s.r.Intn(w)))
	}
	return out
}

package fleet

import (
	"testing"

	"lscatter/internal/rng"
)

func TestEventHeapOrders(t *testing.T) {
	var h eventHeap
	in := []struct {
		slot int64
		tag  int32
	}{{9, 3}, {1, 7}, {4, 0}, {1, 2}, {4, 5}, {0, 1}, {9, 0}}
	for _, e := range in {
		h.push(packEvent(e.slot, e.tag))
	}
	var last uint64
	for i := range in {
		e := h.pop()
		if i > 0 && e < last {
			t.Fatalf("pop %d: %#x after %#x, heap order violated", i, e, last)
		}
		last = e
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
	// Spot-check the packing round trip.
	e := packEvent(12345, 678)
	if got := int64(e >> tagBits); got != 12345 {
		t.Fatalf("slot round trip: got %d", got)
	}
	if got := int32(e & eventTagMask); got != 678 {
		t.Fatalf("tag round trip: got %d", got)
	}
}

func TestSchedTDMATurns(t *testing.T) {
	s := newSched(5, TDMA, rng.New(1))
	// Tag 3 arrives at slot 0: its first turn strictly after slot 0 is
	// slot 3.
	s.offer(3, 1, 0)
	slot, ok := s.nextEventSlot()
	if !ok || slot != 3 {
		t.Fatalf("tag 3 first turn: got slot %d ok=%v, want 3", slot, ok)
	}
	c := s.collect(3)
	if len(c) != 1 || c[0] != 3 {
		t.Fatalf("contenders at slot 3: %v", c)
	}
	out := s.decide(3, c, nil, 0)
	if out.winner != 3 || out.collided {
		t.Fatalf("TDMA decide: %+v", out)
	}
	if out.arrivedAt != 0 {
		t.Fatalf("arrivedAt: got %d want 0", out.arrivedAt)
	}
	// Tag 3 with a second queued message rides the next rotation: slot 8.
	s.offer(3, 1, 3)
	slot, ok = s.nextEventSlot()
	if !ok || slot != 8 {
		t.Fatalf("tag 3 second turn: got slot %d ok=%v, want 8", slot, ok)
	}
}

func TestSchedAlohaCollisionAndBackoff(t *testing.T) {
	s := newSched(4, Aloha, rng.New(7))
	s.offer(0, 1, 0)
	s.offer(2, 1, 0)
	c := s.collect(1)
	if len(c) != 2 {
		t.Fatalf("contenders: %v", c)
	}
	out := s.decide(1, c, nil, 0)
	if !out.collided || out.winner != -1 || len(out.losers) != 2 {
		t.Fatalf("plain ALOHA overlap must collide: %+v", out)
	}
	if s.boExp[0] != 1 || s.boExp[2] != 1 {
		t.Fatalf("backoff exponents after collision: %v %v", s.boExp[0], s.boExp[2])
	}
	// Both colliders must be rescheduled strictly after the collision slot.
	if !s.pending[0] || !s.pending[2] {
		t.Fatal("colliders not rescheduled")
	}
	slot, _ := s.nextEventSlot()
	if slot <= 1 {
		t.Fatalf("backoff landed at slot %d, want > 1", slot)
	}
	// Eventually both deliver (drain up to a generous horizon).
	delivered := 0
	for slot := int64(2); slot < 200 && delivered < 2; slot++ {
		out := s.decide(slot, s.collect(slot), nil, 0)
		if out.winner >= 0 {
			delivered++
		}
	}
	if delivered != 2 {
		t.Fatalf("backoff never separated the colliders: %d delivered", delivered)
	}
}

// TestSchedBackoffWindowCap: the window doubles from backoffSlots and stops
// at backoffMaxSlots however many collisions a tag has seen.
func TestSchedBackoffWindowCap(t *testing.T) {
	s := newSched(2, Aloha, rng.New(4))
	for slot := int64(0); slot < 100; slot++ {
		// Both tags transmit in every slot, so each attempt collides and
		// widens their backoff.
		s.ev = s.ev[:0]
		s.pending[0], s.pending[1] = false, false
		if out := s.decide(slot, []int32{0, 1}, nil, 0); !out.collided {
			t.Fatalf("slot %d: overlap did not collide: %+v", slot, out)
		}
		for len(s.ev) > 0 {
			if next := int64(s.ev.pop() >> tagBits); next <= slot || next > slot+backoffMaxSlots {
				t.Fatalf("slot %d: backoff to slot %d, want in (%d, %d]", slot, next, slot, slot+backoffMaxSlots)
			}
		}
	}
	if s.boExp[0] != backoffMaxExp || s.boExp[1] != backoffMaxExp {
		t.Fatalf("backoff exponents %d, %d after 100 collisions, want the cap %d", s.boExp[0], s.boExp[1], backoffMaxExp)
	}
}

func TestSchedCapture(t *testing.T) {
	power := func(tag int32) float64 {
		if tag == 1 {
			return 100 // 20 dB above the other collider
		}
		return 1
	}
	s := newSched(3, AlohaCapture, rng.New(9))
	s.offer(0, 1, 0)
	s.offer(1, 1, 0)
	out := s.decide(1, s.collect(1), power, 0)
	if out.winner != 1 {
		t.Fatalf("capture winner: %+v", out)
	}
	if len(out.losers) != 1 || out.losers[0] != 0 {
		t.Fatalf("capture losers: %+v", out)
	}
	if out.sinr < 99 || out.sinr > 101 {
		t.Fatalf("winner SINR: got %v want ~100", out.sinr)
	}

	// Equal powers: SINR ~= 1 (0 dB) < 6 dB threshold -> collision.
	s2 := newSched(3, AlohaCapture, rng.New(9))
	s2.offer(0, 1, 0)
	s2.offer(1, 1, 0)
	out2 := s2.decide(1, s2.collect(1), func(int32) float64 { return 1 }, 0)
	if !out2.collided {
		t.Fatalf("equal-power overlap must fail capture: %+v", out2)
	}
}

func TestSchedQueueCapDrops(t *testing.T) {
	s := newSched(1, Aloha, rng.New(3))
	if got := s.offer(0, maxQueue+3, 0); got != maxQueue {
		t.Fatalf("accepted %d, want %d (queue cap)", got, maxQueue)
	}
	if s.dropped != 3 {
		t.Fatalf("dropped %d, want 3", s.dropped)
	}
	if s.queued[0] != maxQueue {
		t.Fatalf("queued %d, want %d", s.queued[0], maxQueue)
	}
}

func TestSchedFIFOLatency(t *testing.T) {
	// Three messages queued at distinct slots must deliver in arrival
	// order with matching arrivedAt stamps.
	s := newSched(1, Aloha, rng.New(5))
	s.offer(0, 1, 0)
	s.offer(0, 1, 2)
	s.offer(0, 1, 4)
	var got []int64
	for slot := int64(1); slot < 50 && len(got) < 3; slot++ {
		out := s.decide(slot, s.collect(slot), nil, 0)
		if out.winner >= 0 {
			got = append(got, out.arrivedAt)
		}
	}
	want := []int64{0, 2, 4}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("arrival stamps: got %v want %v", got, want)
	}
}

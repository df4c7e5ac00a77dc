// Package fleet is the event-driven million-tag fleet engine: it schedules
// large tag populations in O(events) work instead of O(all tags) per sample.
//
// Simulate (and the reusable Sim) runs the contention MACs (TDMA rotation,
// slotted ALOHA with and without capture-effect arbitration) over a packed
// event queue with no waveforms at all: per-slot delivery resolves through
// the link budget and stats.BERFromSNR. This is what makes a 10^6-tag
// city-scale run finish on one machine. The waveform-level multi-tag chain
// is simlink.Session's TDMA owner/park tag stage; see docs/FLEET.md for the
// design.
package fleet

import "fmt"

// MAC selects the medium-access discipline arbitrating the shared
// backscatter channel.
type MAC int

const (
	// TDMA is round-robin ownership: each slot belongs to exactly one tag.
	// Collision-free, but a tag waits O(fleet size) slots for its turn.
	TDMA MAC = iota
	// Aloha is 1-persistent slotted ALOHA: a backlogged tag transmits in
	// the first slot its backoff allows; any overlap is a collision and
	// every collider backs off (binary exponential, from backoffSlots up
	// to backoffMaxSlots).
	Aloha
	// AlohaCapture is slotted ALOHA with capture-effect arbitration: when
	// transmissions overlap, the strongest one still decodes if its SINR
	// over the other colliders clears captureDB (6 dB). Losers back off.
	AlohaCapture
)

// String returns the MAC name as used in flags and artifact metrics.
func (m MAC) String() string {
	switch m {
	case TDMA:
		return "tdma"
	case Aloha:
		return "aloha"
	case AlohaCapture:
		return "capture"
	}
	return fmt.Sprintf("MAC(%d)", int(m))
}

// ParseMAC parses a MAC name as printed by String.
func ParseMAC(s string) (MAC, error) {
	switch s {
	case "tdma":
		return TDMA, nil
	case "aloha":
		return Aloha, nil
	case "capture":
		return AlohaCapture, nil
	}
	return 0, fmt.Errorf("fleet: unknown MAC %q (want tdma, aloha or capture)", s)
}

// The MAC's fixed parameters.
const (
	// captureDB is the SINR threshold (dB) a collider must clear over the
	// others to win capture-effect arbitration under AlohaCapture.
	captureDB = 6.0
	// backoffSlots is the initial binary-exponential backoff window in
	// slots; it doubles per consecutive collision until backoffMaxExp
	// collisions have widened it to backoffMaxSlots (1024).
	backoffSlots    = 2
	backoffMaxExp   = 10
	backoffMaxSlots = backoffSlots << (backoffMaxExp - 1)
	// maxQueue caps each tag's pending-message queue; arrivals beyond it
	// are counted as dropped.
	maxQueue = 8
)

// Config selects the MAC of the Simulate engine and seeds it. The zero
// value selects TDMA.
type Config struct {
	// MAC is the access discipline.
	MAC MAC
	// Seed seeds the scheduler's RNG streams.
	Seed uint64
}

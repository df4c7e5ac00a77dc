package bits

import (
	"testing"
	"testing/quick"

	"lscatter/internal/rng"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(200) + 1
		b := r.Bits(make([]byte, n))
		return CountDiff(Unpack(Pack(b), n), b) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPackMSBFirst(t *testing.T) {
	p := Pack([]byte{1, 0, 0, 0, 0, 0, 0, 1, 1})
	if p[0] != 0x81 || p[1] != 0x80 {
		t.Fatalf("Pack = %x, want 8180", p)
	}
}

func TestPackRejectsNonBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pack accepted value 2")
		}
	}()
	Pack([]byte{2})
}

func TestUnpackBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unpack over-length did not panic")
		}
	}()
	Unpack([]byte{0xff}, 9)
}

func TestCountDiff(t *testing.T) {
	a := []byte{1, 0, 1, 0}
	b := []byte{1, 1, 0, 0}
	if d := CountDiff(a, b); d != 2 {
		t.Fatalf("CountDiff = %d, want 2", d)
	}
}

func TestCRC16DetectsSingleBitErrors(t *testing.T) {
	r := rng.New(3)
	msg := r.Bits(make([]byte, 120))
	coded := AttachCRC16(msg)
	if _, ok := CheckCRC16(coded); !ok {
		t.Fatal("clean CRC16 failed")
	}
	for i := range coded {
		corrupted := append([]byte(nil), coded...)
		corrupted[i] ^= 1
		if _, ok := CheckCRC16(corrupted); ok {
			t.Fatalf("CRC16 missed single-bit error at %d", i)
		}
	}
}

func TestCRC16DetectsBurstErrors(t *testing.T) {
	r := rng.New(4)
	msg := r.Bits(make([]byte, 200))
	coded := AttachCRC16(msg)
	// All bursts of length <= 16 must be detected.
	for burst := 2; burst <= 16; burst++ {
		for trial := 0; trial < 20; trial++ {
			pos := r.Intn(len(coded) - burst)
			corrupted := append([]byte(nil), coded...)
			for j := 0; j < burst; j++ {
				corrupted[pos+j] ^= 1
			}
			// ensure at least first bit flipped so burst is real
			if _, ok := CheckCRC16(corrupted); ok {
				t.Fatalf("CRC16 missed burst len %d at %d", burst, pos)
			}
		}
	}
}

func TestCheckCRC16ShortInput(t *testing.T) {
	if _, ok := CheckCRC16(make([]byte, 10)); ok {
		t.Fatal("CheckCRC16 accepted input shorter than CRC")
	}
}

func TestPRBSBalanceAndPeriodicity(t *testing.T) {
	b := PRBS(0x1234, 1<<16)
	ones := 0
	for _, v := range b {
		ones += int(v)
	}
	// PRBS-15 has period 32767 with 16384 ones per period.
	if ones < 30000 || ones > 35000 {
		t.Fatalf("PRBS ones = %d of %d", ones, len(b))
	}
	// Period check: sequence repeats after 32767.
	for i := 0; i < 1000; i++ {
		if b[i] != b[i+32767] {
			t.Fatalf("PRBS period violated at %d", i)
		}
	}
}

func TestPRBSZeroSeedUsable(t *testing.T) {
	b := PRBS(0, 100)
	allZero := true
	for _, v := range b {
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("PRBS(0) produced all zeros")
	}
}

func TestGoldSequenceKnownProperties(t *testing.T) {
	// Distinct cinit values give nearly uncorrelated sequences.
	a := GoldSequence(0x1111, 4096)
	b := GoldSequence(0x2222, 4096)
	if CountDiff(a, b) < 1700 || CountDiff(a, b) > 2400 {
		t.Fatalf("gold sequences too correlated: diff=%d of 4096", CountDiff(a, b))
	}
	// Deterministic.
	c := GoldSequence(0x1111, 4096)
	if CountDiff(a, c) != 0 {
		t.Fatal("gold sequence not deterministic")
	}
	// Balanced.
	ones := 0
	for _, v := range a {
		ones += int(v)
	}
	if ones < 1850 || ones > 2250 {
		t.Fatalf("gold sequence imbalance: %d ones of 4096", ones)
	}
}

func TestInterleaverRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		cols := r.Intn(16) + 1
		n := r.Intn(300) + 1
		bi := NewBlockInterleaver(cols)
		b := r.Bits(make([]byte, n))
		return CountDiff(bi.Deinterleave(bi.Interleave(b)), b) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaverSpreadsBursts(t *testing.T) {
	bi := NewBlockInterleaver(16)
	n := 256
	b := make([]byte, n)
	inter := bi.Interleave(b)
	_ = inter
	// A burst of 8 adjacent errors in the interleaved domain must land at
	// least `cols` apart after deinterleaving... verify spacing.
	errPos := []int{100, 101, 102, 103}
	marked := make([]byte, n)
	for _, p := range errPos {
		marked[p] = 1
	}
	spread := bi.Deinterleave(marked)
	positions := []int{}
	for i, v := range spread {
		if v == 1 {
			positions = append(positions, i)
		}
	}
	for i := 1; i < len(positions); i++ {
		if positions[i]-positions[i-1] < 8 {
			t.Fatalf("burst not spread: positions %v", positions)
		}
	}
}

package power

import (
	"strings"
	"testing"

	"lscatter/internal/ltephy"
)

func TestBudgetMatchesPaperNumbers(t *testing.T) {
	b := TagBudget(ltephy.BW20, CrystalOscillator)
	if b.SyncComparator != 10e-6 {
		t.Fatalf("comparator = %v, want 10 uW", b.SyncComparator)
	}
	if b.RFSwitch < 56.9e-6 || b.RFSwitch > 57.1e-6 {
		t.Fatalf("switch at 20 MHz = %v, want 57 uW", b.RFSwitch)
	}
	if b.Baseband != 82e-6 {
		t.Fatalf("baseband = %v, want 82 uW", b.Baseband)
	}
	if b.Clock < 4.4e-3 || b.Clock > 4.6e-3 {
		t.Fatalf("30.72 MHz crystal = %v, want ~4.5 mW", b.Clock)
	}
}

func TestClockAnchors(t *testing.T) {
	// §4.8: a 1.4 MHz tag uses a 1.92 MHz clock at 588 uW.
	b := TagBudget(ltephy.BW1_4, CrystalOscillator)
	if b.Clock < 580e-6 || b.Clock > 600e-6 {
		t.Fatalf("1.92 MHz crystal = %v, want 588 uW", b.Clock)
	}
}

func TestRingOscillatorMicrowatts(t *testing.T) {
	// §4.8: ring oscillators bring the 30 MHz clock to ~4 uW, making the
	// whole tag tens of microwatts.
	b := TagBudget(ltephy.BW20, RingOscillator)
	if b.Clock > 6e-6 {
		t.Fatalf("ring oscillator = %v, want ~4 uW", b.Clock)
	}
	if tot := b.Total(); tot > 200e-6 {
		t.Fatalf("IC-design total = %v, want well under 200 uW", tot)
	}
}

func TestSwitchScalesWithBandwidth(t *testing.T) {
	prev := 0.0
	for _, bw := range ltephy.Bandwidths {
		b := TagBudget(bw, RingOscillator)
		if b.RFSwitch <= prev {
			t.Fatalf("%v: switch power %v not increasing", bw, b.RFSwitch)
		}
		prev = b.RFSwitch
	}
}

func TestOrdersOfMagnitudeBelowActiveRadios(t *testing.T) {
	// Typical transmit draw of the active radios the §5 motivation names:
	// tens to hundreds of mW for WiFi/BLE/ZigBee wearables.
	tag := TagBudget(ltephy.BW20, RingOscillator).Total()
	for _, radio := range []struct {
		name  string
		watts float64
	}{{"wifi", 210e-3}, {"ble", 18e-3}, {"zigbee", 35e-3}} {
		if radio.watts < 100*tag {
			t.Fatalf("%s (%v W) not >=100x tag (%v W)", radio.name, radio.watts, tag)
		}
	}
}

func TestBudgetString(t *testing.T) {
	s := TagBudget(ltephy.BW5, RingOscillator).String()
	if !strings.Contains(s, "total=") {
		t.Fatalf("budget string %q", s)
	}
}

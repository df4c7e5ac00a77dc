package baseline

import (
	"testing"

	"lscatter/internal/channel"
	"lscatter/internal/core"
	"lscatter/internal/ltephy"
)

func TestWiFiThroughputScalesWithOccupancy(t *testing.T) {
	w := DefaultWiFiBackscatter()
	lo := w.Evaluate(0.1, 0.8).ThroughputBps
	hi := w.Evaluate(0.6, 0.8).ThroughputBps
	if hi <= lo || lo <= 0 {
		t.Fatalf("occupancy scaling broken: %v -> %v", lo, hi)
	}
	// Busy-hour goodput lands in the tens of kbps (paper's Fig 16a/21a).
	if hi < 20e3 || hi > 120e3 {
		t.Fatalf("busy-hour WiFi backscatter = %v bps, want tens of kbps", hi)
	}
}

func TestWiFiZeroOccupancyZeroThroughput(t *testing.T) {
	w := DefaultWiFiBackscatter()
	if tp := w.Evaluate(0, 0.8).ThroughputBps; tp != 0 {
		t.Fatalf("throughput %v with no ambient traffic", tp)
	}
}

func TestWiFiHeterogeneousTrafficHurts(t *testing.T) {
	w := DefaultWiFiBackscatter()
	all := w.Evaluate(0.5, 1.0).ThroughputBps
	shared := w.Evaluate(0.5, 0.7).ThroughputBps
	if shared >= all {
		t.Fatal("ZigBee/BLE airtime did not reduce WiFi backscatter goodput")
	}
}

func TestWiFiDiesWithDistance(t *testing.T) {
	w := DefaultWiFiBackscatter()
	w.TagToRxM = channel.FeetToMeters(400)
	w.APToRxM = channel.FeetToMeters(403)
	rep := w.Evaluate(0.6, 0.8)
	if rep.ThroughputBps > 1e3 {
		t.Fatalf("WiFi backscatter alive at 400 ft: %v bps", rep.ThroughputBps)
	}
}

func TestWiFiBERMonotoneWithDistance(t *testing.T) {
	var last float64
	for _, ft := range []float64{5, 40, 120, 250} {
		w := DefaultWiFiBackscatter()
		w.TagToRxM = channel.FeetToMeters(ft)
		w.APToRxM = channel.FeetToMeters(ft + 3)
		rep := w.Evaluate(0.5, 0.8)
		if rep.BER < last-1e-12 {
			t.Fatalf("WiFi BER decreased at %v ft", ft)
		}
		last = rep.BER
	}
}

func TestSymbolLevelRateIsThreeOrdersBelowLScatter(t *testing.T) {
	s := DefaultSymbolLevelLTE()
	rep := s.Evaluate()
	if rep.ThroughputBps < 5e3 || rep.ThroughputBps > 8e3 {
		t.Fatalf("symbol-level LTE rate = %v, want ~7 kbps", rep.ThroughputBps)
	}
	ratio := core.RawBackscatterRate(ltephy.BW20) / rep.ThroughputBps
	if ratio < 1000 || ratio > 3000 {
		t.Fatalf("LScatter/symbol-level ratio = %v, want ~2000 (3 orders)", ratio)
	}
}

func TestSymbolLevelOutrangesWiFi(t *testing.T) {
	// Fig 23's crossover: beyond ~80 ft the 680 MHz symbol-level link still
	// delivers its 7 kbps while WiFi backscatter collapses.
	s := DefaultSymbolLevelLTE()
	s.TagToUEM = channel.FeetToMeters(160)
	s.ENodeBToUEM = channel.FeetToMeters(163)
	w := DefaultWiFiBackscatter()
	w.TagToRxM = channel.FeetToMeters(160)
	w.APToRxM = channel.FeetToMeters(163)
	st := s.Evaluate().ThroughputBps
	wt := w.Evaluate(0.5, 0.8).ThroughputBps
	if st <= wt {
		t.Fatalf("at 160 ft symbol-level LTE %v <= WiFi %v", st, wt)
	}
}

func TestReportsDeterministic(t *testing.T) {
	w := DefaultWiFiBackscatter()
	if w.Evaluate(0.4, 0.8) != w.Evaluate(0.4, 0.8) {
		t.Fatal("WiFi baseline not deterministic")
	}
	s := DefaultSymbolLevelLTE()
	if s.Evaluate() != s.Evaluate() {
		t.Fatal("symbol-level baseline not deterministic")
	}
}

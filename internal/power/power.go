// Package power implements the tag power-consumption accounting of §4.8:
// the synchronization comparator, the reflective RF switch (consumption
// proportional to channel bandwidth), the Flash-Freeze FPGA baseband, and
// the clock source, with both crystal-oscillator and ring-oscillator
// options.
package power

import (
	"fmt"

	"lscatter/internal/ltephy"
)

// ClockSource selects the tag clock implementation.
type ClockSource int

const (
	// CrystalOscillator is the COTS option: LTC6990 at 1.92 MHz (588 uW)
	// up to CSX-252F at 30.72 MHz (4.5 mW).
	CrystalOscillator ClockSource = iota
	// RingOscillator is the IC-design option used by HitchHike and
	// Interscatter: ~4 uW at 30 MHz, ~9.7 uW at 35.75 MHz.
	RingOscillator
)

// Budget itemizes the tag's power draw in watts.
type Budget struct {
	// SyncComparator is the MAX931-class comparator of the sync circuit.
	SyncComparator float64
	// RFSwitch is the ADG902 reflective switch.
	RFSwitch float64
	// Baseband is the Igloo Nano FPGA with Flash-Freeze on 80% of flash.
	Baseband float64
	// Clock is the oscillator.
	Clock float64
}

// Total returns the summed draw in watts.
func (b Budget) Total() float64 {
	return b.SyncComparator + b.RFSwitch + b.Baseband + b.Clock
}

// String formats the budget in microwatts.
func (b Budget) String() string {
	return fmt.Sprintf("sync=%.1fuW switch=%.1fuW baseband=%.1fuW clock=%.1fuW total=%.1fuW",
		b.SyncComparator*1e6, b.RFSwitch*1e6, b.Baseband*1e6, b.Clock*1e6, b.Total()*1e6)
}

// Component constants from the paper's datasheet accounting.
const (
	// comparatorPower: MAX931-class ultra-low-power comparator (~10 uW).
	comparatorPower = 10e-6
	// switchPowerAt20MHz: ADG902 at the maximum 20 MHz channel (~57 uW);
	// consumption scales linearly with bandwidth (§4.8 / FS-Backscatter).
	switchPowerAt20MHz = 57e-6
	// basebandPower: AGLN250 with 80% Flash-Freeze (~82 uW).
	basebandPower = 82e-6
)

// clockPower returns the oscillator draw for the clock rate the given
// bandwidth requires (the LTE oversampling ratio means the clock runs at
// FFTSize * 15 kHz, above the occupied bandwidth).
func clockPower(bw ltephy.Bandwidth, src ClockSource) float64 {
	rate := bw.SampleRate() // 1.92 MHz .. 30.72 MHz
	switch src {
	case CrystalOscillator:
		// Interpolate between the two datasheet anchor points:
		// LTC6990 at 1.92 MHz = 588 uW, CSX-252F at 30.72 MHz = 4.5 mW.
		lo, hi := 588e-6, 4.5e-3
		frac := (rate - 1.92e6) / (30.72e6 - 1.92e6)
		return lo + frac*(hi-lo)
	case RingOscillator:
		// ~4 uW at 30 MHz, scaling linearly with frequency.
		return 4e-6 * rate / 30e6
	}
	panic("power: unknown clock source")
}

// TagBudget returns the itemized power budget for a tag operating at the
// given bandwidth with the given clock source.
func TagBudget(bw ltephy.Bandwidth, clock ClockSource) Budget {
	return Budget{
		SyncComparator: comparatorPower,
		RFSwitch:       switchPowerAt20MHz * bw.MHz() / 20,
		Baseband:       basebandPower,
		Clock:          clockPower(bw, clock),
	}
}

package experiments

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
	"lscatter/internal/simlink"
	"lscatter/internal/tag"
)

// Real-time-factor (RTF) measurement: simulated seconds the float Session
// produces per wall-clock second at 20 MHz, on one goroutine.
// docs/PERFORMANCE.md defines the methodology and records the trajectory.

// rtfSubframes is the timed Session length in subframes (ms of simulated
// time).
const rtfSubframes = 10

// RTFReport is the JSON-facing result of one RTF run.
type RTFReport struct {
	// BW names the measured bandwidth.
	BW string `json:"bw"`
	// SampleRateHz is the oversampled simulation rate.
	SampleRateHz float64 `json:"sample_rate_hz"`
	// SessionFloatRTF is the full Session (source generation, modulation,
	// paths, combine, noise): simulated seconds per wall-clock second.
	SessionFloatRTF float64 `json:"session_float_rtf"`
	// GoVersion and CPU record the machine the numbers were taken on.
	GoVersion string `json:"go_version"`
	CPU       string `json:"cpu,omitempty"`
}

// Render formats the report for the terminal.
func (r *RTFReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RTF @ %s (%.2f MS/s, one goroutine)\n", r.BW, r.SampleRateHz/1e6)
	fmt.Fprintf(&b, "  session: %.2fx real time\n", r.SessionFloatRTF)
	fmt.Fprintf(&b, "  %s, %s", r.GoVersion, r.CPU)
	return b.String()
}

// cpuModel best-effort reads the CPU model name (linux); empty elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// rtfSession builds the canonical RTF scenario: a 10 dBm eNodeB, one DSB tag
// with the default 6 dB reflection loss, plausible fixed path budgets and a
// noise floor that keeps the noise add in the hot loop. It has no sink: the
// measurement is the transport chain itself.
func rtfSession(bw ltephy.Bandwidth, seed uint64) *simlink.Session {
	p := ltephy.DefaultParams(bw)
	occupied := float64(bw.Subcarriers()) * ltephy.SubcarrierSpacing
	noise := channel.NoiseFloorW(occupied, 7) * p.SampleRate() / occupied
	mod := tag.NewModulator(tag.ModConfig{Params: p, Mode: tag.DSB, ReflectionLossDB: 6})
	payload := make([]byte, 14*p.UsefulModulationUnits())
	return &simlink.Session{
		Source: enodeb.New(enodeb.DefaultConfig(bw)),
		Direct: simlink.GainDB(-50),
		Tags: []*simlink.Tag{{
			Mod:  mod,
			Path: simlink.GainDB(-70),
			Feed: func(int, *tag.Modulator) { mod.QueueBits(payload) },
		}},
		Link: channel.NewLink(rng.New(seed).Fork(1), noise),
	}
}

// RunRTF measures the float Session's real-time factor at 20 MHz on the
// calling goroutine; seed drives the receiver noise.
func RunRTF(seed uint64) *RTFReport {
	bw := ltephy.BW20
	rep := &RTFReport{
		BW:           bw.String(),
		SampleRateHz: ltephy.DefaultParams(bw).SampleRate(),
		GoVersion:    runtime.Version(),
		CPU:          cpuModel(),
	}
	sess := rtfSession(bw, seed)
	sess.Run(1) // warm the waveform cache path
	start := time.Now()
	sess.Run(rtfSubframes)
	rep.SessionFloatRTF = rtfSubframes * ltephy.SubframeDuration / time.Since(start).Seconds()
	return rep
}

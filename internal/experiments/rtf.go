package experiments

import (
	"fmt"
	"os"
	"runtime"
	"slices"
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

// rtfSubframes is the length of one timed window in subframes (ms of
// simulated time), and rtfWindows the number of windows whose median is
// reported: a single window spread 0.04–0.06× run to run on a shared
// 2-core box, too wide to show a 20% change.
const (
	rtfSubframes = 10
	rtfWindows   = 5
)

// RTFReport is the JSON-facing result of one RTF run.
type RTFReport struct {
	// BW names the measured bandwidth.
	BW string `json:"bw"`
	// SampleRateHz is the oversampled simulation rate.
	SampleRateHz float64 `json:"sample_rate_hz"`
	// SessionFloatRTF is the full Session (source generation, modulation,
	// paths, combine, noise): simulated seconds per wall-clock second, the
	// median over the timed windows.
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
// calling goroutine; seed drives the receiver noise. After one warmup
// subframe it times rtfWindows consecutive windows of rtfSubframes each and
// reports the median window.
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
	rtfs := make([]float64, rtfWindows)
	for i := range rtfs {
		start := time.Now()
		sess.Run(rtfSubframes)
		rtfs[i] = rtfSubframes * ltephy.SubframeDuration / time.Since(start).Seconds()
	}
	slices.Sort(rtfs)
	rep.SessionFloatRTF = rtfs[rtfWindows/2]
	return rep
}

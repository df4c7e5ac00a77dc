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

// Real-time-factor (RTF) measurement: simulated seconds produced per
// wall-clock second, on one goroutine. The headline number is the
// fixed-point transport pipeline (simlink.Streamer) at the configured
// bandwidth, with the full Session over the same stage graph reported as
// secondary context. docs/PERFORMANCE.md defines the methodology and the
// recorded targets; tools/rtfcheck gates regressions against the baseline
// in BENCH_R3.json.

// RTFConfig parameterizes an RTF run.
type RTFConfig struct {
	// BW is the measured bandwidth (default 20 MHz — the headline).
	BW ltephy.Bandwidth
	// Subframes is the timed streamer length in ms (default 2000).
	Subframes int
	// SessionSubframes is the timed length of the secondary full-Session
	// measurement (default 10; it is orders of magnitude slower).
	SessionSubframes int
	// Seed drives payload and noise.
	Seed uint64
}

// RTFReport is the JSON-facing result of one RTF run.
type RTFReport struct {
	// BW names the measured bandwidth.
	BW string `json:"bw"`
	// SampleRateHz is the oversampled simulation rate.
	SampleRateHz float64 `json:"sample_rate_hz"`
	// Subframes is the timed streamer subframe count.
	Subframes int `json:"subframes"`
	// WallSeconds is the streamer's timed-loop wall time.
	WallSeconds float64 `json:"wall_seconds"`
	// RTF is the headline: simulated seconds per wall-clock second for the
	// fixed-point transport pipeline on one goroutine.
	RTF float64 `json:"rtf"`
	// SessionFloatRTF is the full Session (source generation, modulation,
	// paths, combine, noise) over the same stage graph.
	SessionFloatRTF float64 `json:"session_float_rtf"`
	// GoVersion and CPU record the machine the numbers were taken on.
	GoVersion string `json:"go_version"`
	CPU       string `json:"cpu,omitempty"`
	// Checksum witnesses that the timed loop really produced the stream.
	Checksum uint64 `json:"checksum"`
}

// Render formats the report for the terminal.
func (r *RTFReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RTF @ %s (%.2f MS/s, one goroutine)\n", r.BW, r.SampleRateHz/1e6)
	fmt.Fprintf(&b, "  transport (fxp streamer): %7.2fx real time  (%d subframes in %.3f s)\n",
		r.RTF, r.Subframes, r.WallSeconds)
	fmt.Fprintf(&b, "  session:                  %7.2fx real time\n", r.SessionFloatRTF)
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

// rtfStreamConfig is the canonical RTF scenario: a 10 dBm eNodeB, the
// default 6 dB reflection loss, plausible fixed path budgets and a noise
// floor that keeps the noise add in the hot loop.
func rtfStreamConfig(bw ltephy.Bandwidth, seed uint64) simlink.StreamConfig {
	p := ltephy.DefaultParams(bw)
	occupied := float64(bw.Subcarriers()) * ltephy.SubcarrierSpacing
	noise := channel.NoiseFloorW(occupied, 7) * p.SampleRate() / occupied
	return simlink.StreamConfig{
		ENodeB:       enodeb.DefaultConfig(bw),
		Tag:          tag.ModConfig{Params: p, Mode: tag.DSB, ReflectionLossDB: 6},
		DirectGainDB: -50,
		TagGainDB:    -70,
		NoisePowerW:  noise,
		Seed:         seed,
	}
}

// rtfSession builds the Session twin of rtfStreamConfig (no sink: the
// measurement is the transport chain itself).
func rtfSession(bw ltephy.Bandwidth, seed uint64) *simlink.Session {
	p := ltephy.DefaultParams(bw)
	sc := rtfStreamConfig(bw, seed)
	mod := tag.NewModulator(sc.Tag)
	payload := make([]byte, 14*p.UsefulModulationUnits())
	return &simlink.Session{
		Source: enodeb.New(sc.ENodeB),
		Direct: simlink.GainDB(sc.DirectGainDB),
		Tags: []*simlink.Tag{{
			Mod:  mod,
			Path: simlink.GainDB(sc.TagGainDB),
			Feed: func(int, *tag.Modulator) { mod.QueueBits(payload) },
		}},
		Link: channel.NewLink(rng.New(seed).Fork(1), sc.NoisePowerW),
	}
}

// RunRTF measures the real-time factors of the transport pipeline. All
// loops run on the calling goroutine.
func RunRTF(cfg RTFConfig) *RTFReport {
	if cfg.BW == 0 {
		cfg.BW = ltephy.BW20
	}
	if cfg.Subframes == 0 {
		cfg.Subframes = 2000
	}
	if cfg.SessionSubframes == 0 {
		cfg.SessionSubframes = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	p := ltephy.DefaultParams(cfg.BW)
	rep := &RTFReport{
		BW:           cfg.BW.String(),
		SampleRateHz: p.SampleRate(),
		Subframes:    cfg.Subframes,
		GoVersion:    runtime.Version(),
		CPU:          cpuModel(),
	}
	simPerSubframe := ltephy.SubframeDuration

	// Headline: the fixed-point streamer. Construction (ambient frame,
	// composite packing) is excluded — it is O(1) per stream, the steady
	// state is what real-time operation pays per millisecond.
	st := simlink.NewStreamer(rtfStreamConfig(cfg.BW, cfg.Seed))
	for i := 0; i < 50; i++ { // warm caches and branch predictors
		st.Next()
	}
	start := time.Now()
	for i := 0; i < cfg.Subframes; i++ {
		st.Next()
	}
	rep.WallSeconds = time.Since(start).Seconds()
	rep.Checksum = st.Checksum()
	rep.RTF = float64(cfg.Subframes) * simPerSubframe / rep.WallSeconds

	// Secondary: the full Session (includes live source generation and
	// per-sample modulation — the general engine, not the precomputed
	// transport core).
	sess := rtfSession(cfg.BW, cfg.Seed)
	sess.Run(1) // warm the waveform cache path
	start = time.Now()
	sess.Run(cfg.SessionSubframes)
	rep.SessionFloatRTF = float64(cfg.SessionSubframes) * simPerSubframe / time.Since(start).Seconds()
	return rep
}

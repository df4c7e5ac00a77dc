package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lscatter/internal/channel"
	"lscatter/internal/core"
	"lscatter/internal/enodeb"
	"lscatter/internal/experiments"
	"lscatter/internal/impair"
	"lscatter/internal/ltephy"
	"lscatter/internal/modem"
	"lscatter/internal/rng"
	"lscatter/internal/simlink"
	"lscatter/internal/tag"
	"lscatter/internal/ue"
)

// linkSeedSets is how many seed sets the exact-link grid cycles through:
// run seed n uses set (n+i) % linkSeedSets on its i-th pass over the grid.
// It is small so that every run covers every set about equally often, and
// runs differ in order rather than in the mix of sets they measure.
const linkSeedSets = 4

// linkPoint is one exact-link grid point.
type linkPoint struct {
	name      string
	bw        ltephy.Bandwidth
	impair    string // impairment rung: "off" or "moderate"
	subframes int
	// tagToUEFt, when set, moves the tag away from the UE (default 3 ft).
	tagToUEFt float64
	// closedForm evaluates the point in core.SemiAnalytic mode: the answer
	// for the same link without streaming a subframe.
	closedForm bool
}

// streamingPoints are the exact-mode core.Run calls, at the two bandwidths
// served exact mode admits, impairment rungs off and moderate. Four of the
// six are 1.4 MHz, so the median call sits inside the 1.4 MHz mode and the
// 90th percentile inside the 5 MHz mode.
var streamingPoints = []linkPoint{
	{name: "1.4MHz/off", bw: ltephy.BW1_4, impair: "off", subframes: 40},
	{name: "1.4MHz/moderate", bw: ltephy.BW1_4, impair: "moderate", subframes: 40},
	{name: "1.4MHz/off/10ft", bw: ltephy.BW1_4, impair: "off", subframes: 40, tagToUEFt: 10},
	{name: "1.4MHz/moderate/10ft", bw: ltephy.BW1_4, impair: "moderate", subframes: 40, tagToUEFt: 10},
	{name: "5MHz/off", bw: ltephy.BW5, impair: "off", subframes: 30},
	{name: "5MHz/moderate", bw: ltephy.BW5, impair: "moderate", subframes: 30},
}

// linkGrid is one pass: closedFormRepeats closed-form twins of every
// streaming point (sub-millisecond calls, enough of them that their 90th
// percentile rests on well over a hundred calls per run), then the streaming
// points.
var linkGrid = append(closedFormTwins(closedFormRepeats), streamingPoints...)

const closedFormRepeats = 4

func closedFormTwins(repeats int) []linkPoint {
	var out []linkPoint
	for r := 0; r < repeats; r++ {
		for _, p := range streamingPoints {
			p.name = fmt.Sprintf("%s/closed-form%d", p.name, r)
			p.closedForm = true
			out = append(out, p)
		}
	}
	return out
}

// config is the core.LinkConfig of the point under seed set k.
func (p linkPoint) config(k int) core.LinkConfig {
	cfg := core.DefaultLinkConfig(p.bw)
	cfg.Mode = core.Exact
	if p.closedForm {
		cfg.Mode = core.SemiAnalytic
	}
	cfg.Seed = experiments.DeriveSeed(uint64(k)+1, "exact-link/"+p.name)
	cfg.Subframes = p.subframes
	if p.tagToUEFt > 0 {
		cfg.TagToUEM = channel.FeetToMeters(p.tagToUEFt)
		cfg.ENodeBToUEM = channel.FeetToMeters(p.tagToUEFt + 3)
	}
	for _, lvl := range experiments.ImpairmentLevels() {
		if lvl.Name == p.impair && lvl.Impair.Active() {
			ic := lvl.Impair
			cfg.Impair = &ic
		}
	}
	return cfg
}

// checkLink compares a report with the recording.
func checkLink(rep core.LinkReport, k, i int, out *outcome) {
	out.attempted++
	if recordOf(rep) != linkRecords[k][i] {
		out.failed++
	}
}

// runLink is exact-link untraced: passes over the grid, each call on a cold
// waveform cache. Each pass starts on a collected heap, so that the garbage
// of one pass does not land in the timing of the next.
func runLink(ctx context.Context, e *env) (*outcome, error) {
	out := &outcome{}
	var passWalls, rtf, callRate, runLat, hitLat []float64
	deadline := time.Duration(e.opts.seconds) * time.Second
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < deadline; pass++ {
		k := int((e.opts.seed + uint64(pass)) % linkSeedSets)
		runtime.GC()
		var wall, simulated float64
		for i, p := range linkGrid {
			cfg := p.config(k)
			ltephy.SharedCache.Reset()
			t0 := time.Now()
			rep := core.Run(cfg)
			d := time.Since(t0).Seconds()
			checkLink(rep, k, i, out)
			wall += d
			if p.closedForm {
				hitLat = append(hitLat, d)
			} else {
				simulated += float64(cfg.Subframes) * ltephy.SubframeDuration
				runLat = append(runLat, d)
			}
		}
		passWalls = append(passWalls, wall)
		rtf = append(rtf, simulated/wall)
		callRate = append(callRate, float64(len(linkGrid))/wall)
	}
	n := fmt.Sprintf("median of %d grid passes", len(passWalls))
	out.add("sweep_s", "s", median(passWalls), n)
	out.add("link_sim_s_per_s", "s/s", median(rtf), n)
	out.add("served_jobs_per_s", "1/s", median(callRate), n+"; core.Run calls per second")
	out.add("served_run_p50_ms", "ms", quantile(ms(runLat), 0.5), fmt.Sprintf("n=%d streaming calls", len(runLat)))
	out.add("served_run_p90_ms", "ms", quantile(ms(runLat), 0.9), fmt.Sprintf("n=%d streaming calls", len(runLat)))
	out.add("served_hit_p90_ms", "ms", quantile(ms(hitLat), 0.9), fmt.Sprintf("n=%d closed-form calls", len(hitLat)))
	return out, nil
}

// linkStageNames are the per-layer metrics the replica's spans produce.
var linkStageNames = []string{
	"core.semi_analytic", "core.build", "enodeb.subframe", "tag.modulate",
	"channel.direct_path", "channel.tag_path", "channel.link",
	"ue.lte_decode", "ue.scatter_demod",
}

// runLinkTraced is exact-link traced: per grid point, core.Run untraced and
// then the stage-instrumented replica, each on a cold waveform cache; the
// replica's report must equal core.Run's exactly.
func runLinkTraced(ctx context.Context, e *env, tr *tracer) (*outcome, error) {
	out := &outcome{}
	var untraced, traced float64
	var g goStats
	var cache ltephy.CacheStats
	var counts replicaCounts
	deadline := time.Duration(e.opts.seconds) * time.Second
	start := time.Now()
	passes, run := 0, 0
	for ; passes == 0 || time.Since(start) < deadline; passes++ {
		k := int((e.opts.seed + uint64(passes)) % linkSeedSets)
		runtime.GC()
		for i, p := range linkGrid {
			cfg := p.config(k)
			ltephy.SharedCache.Reset()
			t0 := time.Now()
			want := core.Run(cfg)
			untraced += time.Since(t0).Seconds()
			checkLink(want, k, i, out)

			ltephy.SharedCache.Reset()
			c0, g0 := ltephy.SharedStats(), readGoStats()
			t1 := time.Now()
			got := replicaRun(cfg, tr, run, &counts)
			traced += time.Since(t1).Seconds()
			g = g.add(readGoStats().sub(g0))
			c := ltephy.SharedStats().Delta(c0)
			cache.Hits += c.Hits
			cache.Misses += c.Misses
			cache.Evictions += c.Evictions
			run++
			out.attempted++
			if got != want {
				out.failed++
				out.fail("replica report differs from core.Run at %s set %d: %+v vs %+v", p.name, k, got, want)
			}
		}
	}
	per := float64(passes)
	self, _, _ := tr.selfTimes()
	for _, name := range linkStageNames {
		out.add(name+"_s", "s", self[name]/per, "per grid pass")
	}
	out.add("ue.lte_ok_ratio", "ratio", ratio(float64(counts.lteOK), float64(counts.subframes)),
		fmt.Sprintf("%d of %d subframes", counts.lteOK, counts.subframes))
	out.add("ue.burst_sync_ratio", "ratio", ratio(float64(counts.synced), float64(counts.bursts)),
		fmt.Sprintf("%d of %d burst subframes", counts.synced, counts.bursts))
	out.add("ltephy.cache_hits", "count", float64(cache.Hits)/per, "per grid pass")
	out.add("ltephy.cache_misses", "count", float64(cache.Misses)/per, "per grid pass")
	out.add("ltephy.cache_evictions", "count", float64(cache.Evictions)/per, "per grid pass")
	out.addGo(g, per, "grid pass")
	out.addCoverage(tr)
	out.add("bench.trace_overhead_ratio", "ratio", ratio(traced, untraced),
		fmt.Sprintf("replica %.3f s / core.Run %.3f s over %d passes", traced, untraced, passes))
	return out, nil
}

// replicaCounts are the receiver outcome counters of the traced replica.
type replicaCounts struct {
	subframes, lteOK, bursts, synced int
}

// stageClock turns the replica's boundary marks into contiguous stage spans
// of one subframe: each mark closes the stage that ran since the previous
// one.
type stageClock struct {
	tr        *tracer
	root, run int
	last      int64 // end of the previous stage
	consume   int64 // Sink.Consume entry
	lteDone   int64 // OnLTE mark
}

func (c *stageClock) mark(name string) {
	t := c.tr.now()
	c.tr.record(name, c.root, c.run, c.last, t)
	c.last = t
}

// tracedSource times the eNodeB's subframe generation.
type tracedSource struct {
	inner simlink.Source
	clock *stageClock
}

func (s tracedSource) NextSubframe() *enodeb.Subframe {
	s.clock.last = s.clock.tr.now()
	sf := s.inner.NextSubframe()
	s.clock.mark("enodeb.subframe")
	return sf
}

// tracedPath times one propagation path.
type tracedPath struct {
	inner simlink.PathStage
	name  string
	clock *stageClock
}

func (p tracedPath) Apply(x []complex128) []complex128 {
	p.clock.last = p.clock.tr.now()
	y := p.inner.Apply(x)
	p.clock.mark(p.name)
	return y
}

// tracedSink splits the receiver: the span before Consume is the link
// (combine, noise, impairments, carrier tracker), Consume up to the OnLTE
// hook is the LTE decode, the rest is the scatter demodulation.
type tracedSink struct {
	inner  *simlink.DemodSink
	clock  *stageClock
	counts *replicaCounts
}

func (s tracedSink) Consume(f *simlink.Frame) bool {
	c := s.clock
	c.mark("channel.link")
	c.consume = c.last
	c.lteDone = -1
	lteOK := s.inner.LTEOK
	adv := s.inner.Consume(f)
	t := c.tr.now()
	if c.lteDone < 0 {
		c.lteDone = t
	}
	c.tr.record("ue.lte_decode", c.root, c.run, c.consume, c.lteDone)
	c.tr.record("ue.scatter_demod", c.root, c.run, c.lteDone, t)
	c.last = t
	s.counts.subframes++
	s.counts.lteOK += s.inner.LTEOK - lteOK
	if f.Burst {
		s.counts.bursts++
	}
	return adv
}

// replicaRun is core.Run's exact mode rebuilt from the same public
// constructors (closed-form points run core.Run itself), with its Source, paths and Sink wrapped in timers and the
// Ambient tap and OnLTE hook as boundary marks. The wrappers only observe:
// the paths they wrap are draw-free per call, so the report is identical to
// core.Run's.
func replicaRun(cfg core.LinkConfig, tr *tracer, run int, counts *replicaCounts) core.LinkReport {
	root := tr.begin("core.run", -1, run)
	defer tr.end(root)
	if cfg.Mode != core.Exact {
		// The closed form has no stages to rebuild: it is one span.
		s := tr.begin("core.semi_analytic", root, run)
		defer tr.end(s)
		return core.Run(cfg)
	}
	build := tr.begin("core.build", root, run)
	rep, sess, sink, tracker := buildReplica(cfg, tr, root, run, counts)
	tr.end(build)
	if sess == nil {
		return rep
	}
	sess.Run(cfg.Subframes)

	acct := sink.Totals()
	rep.Synced = sink.Synced
	rep.LTEOK = sink.LTEOK > cfg.Subframes/2
	rep.BitsCompared = acct.Total
	if tracker != nil {
		rep.Reacquisitions = tracker.Reacquisitions()
	}
	rep.BER = acct.BER()
	if acct.Total == 0 {
		return rep
	}
	rep.ThroughputBps = rep.RawRateBps * (1 - rep.BER)
	if !rep.Synced {
		rep.ThroughputBps = 0
	}
	return rep
}

// buildReplica wires the traced Session exactly as core's exact mode wires
// its own; sess is nil when the tag is out of the eNodeB's range. The grid's
// configs start from core.DefaultLinkConfig, so core's defaulting of unset
// fields has nothing to fill.
func buildReplica(cfg core.LinkConfig, tr *tracer, root, run int, counts *replicaCounts) (core.LinkReport, *simlink.Session, *simlink.DemodSink, *ue.CFOTracker) {
	r := rng.New(cfg.Seed)
	p := ltephy.DefaultParams(cfg.BW)
	enb := enodeb.New(enodeb.Config{Params: p, Scheme: modem.QPSK, TxPowerDBm: cfg.TxPowerDBm, Seed: cfg.Seed})

	pl := channel.PathLoss{FreqHz: cfg.CarrierHz, Exponent: cfg.PathLossExponent}
	profile := channel.PedestrianProfile
	if cfg.Indoor {
		profile = channel.RichProfile
	}
	if cfg.LoS && !cfg.Indoor {
		profile = channel.FlatProfile
	}
	sr := p.SampleRate()
	directHop := channel.NewHop(r.Fork(1), pl, cfg.ENodeBToUEM,
		cfg.ENodeBAntennaDB+cfg.UEAntennaDB, 0, channel.NewMultipath(r.Fork(2), profile, sr))
	hop1 := channel.NewHop(r.Fork(3), pl, cfg.ENodeBToTagM, cfg.ENodeBAntennaDB+cfg.TagAntennaDB, 0, nil)
	hop2 := channel.NewHop(r.Fork(4), pl, cfg.TagToUEM,
		cfg.TagAntennaDB+cfg.UEAntennaDB, 0, channel.NewMultipath(r.Fork(5), profile, sr))

	mod := tag.NewModulator(tag.ModConfig{
		Params:           p,
		ReflectionLossDB: cfg.TagLossDB,
		TimingErrorUnits: int(r.NormFloat64() * 3),
		SampleOffset:     r.Intn(p.Oversample),
	})
	payload := r.Fork(6)
	lteRx := ue.NewLTEReceiver(p, modem.QPSK)
	sc := ue.NewScatterDemod(ue.DefaultScatterConfig(p))

	occupied := float64(cfg.BW.Subcarriers()) * ltephy.SubcarrierSpacing
	noisePerSample := channel.NoiseFloorW(occupied, cfg.NoiseFigureDB) * sr / occupied

	incidentDBm := cfg.TxPowerDBm - pl.LossDB(cfg.ENodeBToTagM) + cfg.ENodeBAntennaDB + cfg.TagAntennaDB
	rep := core.LinkReport{
		RawRateBps:     core.RawBackscatterRate(cfg.BW),
		TagHearsENodeB: incidentDBm >= cfg.TagSensitivityDBm,
	}
	if !rep.TagHearsENodeB {
		rep.BER = 0.5
		return rep, nil, nil, nil
	}

	noiseRng := r.Fork(7)
	var (
		tagJitter *impair.TimingJitter
		rxPipe    *impair.Pipeline
		tracker   *ue.CFOTracker
	)
	if cfg.Impair != nil && cfg.Impair.Active() {
		ic := *cfg.Impair
		if ic.Seed == 0 {
			ic.Seed = cfg.Seed
		}
		if ic.SampleRate == 0 {
			ic.SampleRate = sr
		}
		tagJitter = impair.NewTimingJitter(ic)
		rxPipe = impair.NewFor(ic, impair.SFO, impair.CFO, impair.Interference, impair.ADC)
		tracker = ue.NewCFOTracker(p, 0, ue.CFOTrackerConfig{})
	}

	clock := &stageClock{tr: tr, root: root, run: run}
	sink := &simlink.DemodSink{LTE: lteRx, Scatter: sc, HoldOnLTEError: true}
	sink.OnLTE = func(*simlink.Frame, *ue.LTEResult, error) { clock.lteDone = tr.now() }
	sink.OnSync = func(*simlink.Frame, *ue.ScatterResult) { counts.synced++ }
	sess := &simlink.Session{
		Source: tracedSource{inner: enb, clock: clock},
		Direct: tracedPath{inner: directHop, name: "channel.direct_path", clock: clock},
		Tags: []*simlink.Tag{{
			Mod:  mod,
			Path: tracedPath{inner: simlink.Chain(hop1, hop2), name: "channel.tag_path", clock: clock},
			Feed: func(int, *tag.Modulator) {
				mod.QueueBits(payload.Bits(make([]byte, 12*mod.PerSymbolBits())))
			},
			Jitter: tagJitter,
		}},
		Link:    channel.NewLink(noiseRng, noisePerSample, channel.WithImpairment(rxPipe)),
		Tracker: tracker,
		Sink:    tracedSink{inner: sink, clock: clock, counts: counts},
		// The ambient tap fires after the tag has planned and modulated the
		// subframe and before any path runs: it closes the tag stage.
		Taps: simlink.Taps{Ambient: func(*simlink.Frame, []complex128) { clock.mark("tag.modulate") }},
	}
	return rep, sess, sink, tracker
}

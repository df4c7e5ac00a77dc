package simlink

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"lscatter/internal/channel"
	"lscatter/internal/enodeb"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
	"lscatter/internal/tag"
	"lscatter/internal/ue"
)

func TestIsBurstSubframe(t *testing.T) {
	for idx := 0; idx < ltephy.SubframesPerFrame; idx++ {
		want := idx == 0 || idx == 5
		if got := IsBurstSubframe(idx); got != want {
			t.Fatalf("IsBurstSubframe(%d) = %v, want %v", idx, got, want)
		}
	}
}

func TestGainDBAmplitude(t *testing.T) {
	in := []complex128{1, 2i, -3}
	out := GainDB(-20).Apply(in)
	g := math.Pow(10, -20.0/20)
	for i, v := range in {
		want := v * complex(g, 0)
		if out[i] != want {
			t.Fatalf("sample %d: %v, want %v", i, out[i], want)
		}
	}
	if &out[0] == &in[0] {
		t.Fatal("GainDB must not write in place")
	}
}

func TestChainComposesLeftToRight(t *testing.T) {
	var order []string
	mk := func(name string) PathStage {
		return PathFunc(func(x []complex128) []complex128 {
			order = append(order, name)
			return x
		})
	}
	Chain(nil, mk("a"), nil, mk("b")).Apply([]complex128{1})
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("stage order %v, want [a b]", order)
	}
	// Chain() and Identity both pass the slice through untouched.
	in := []complex128{1, 2}
	if got := Chain().Apply(in); &got[0] != &in[0] {
		t.Fatal("empty Chain must be the identity")
	}
	if got := Identity.Apply(in); &got[0] != &in[0] {
		t.Fatal("Identity must not copy")
	}
}

func TestSessionWithoutLinkAliasesAmbient(t *testing.T) {
	enb := enodeb.New(enodeb.DefaultConfig(ltephy.BW1_4))
	var seen *Frame
	sess := &Session{Source: enb, Sink: SinkFunc(func(f *Frame) bool {
		seen = f
		return true
	})}
	sess.Run(1)
	if seen == nil {
		t.Fatal("sink never ran")
	}
	if &seen.RX[0] != &seen.Subframe.Samples[0] {
		t.Fatal("with no Link, RX must alias the ambient samples")
	}
	if seen.Owner != -1 {
		t.Fatalf("tagless frame owner = %d, want -1", seen.Owner)
	}
}

func TestSessionOwnershipAndPark(t *testing.T) {
	cfg := enodeb.DefaultConfig(ltephy.BW1_4)
	enb := enodeb.New(cfg)
	p := cfg.Params
	r := rng.New(11)
	mods := []*tag.Modulator{
		tag.NewModulator(tag.ModConfig{Params: p, ID: 1}),
		tag.NewModulator(tag.ModConfig{Params: p, ID: 2}),
	}
	for _, m := range mods {
		m.QueueBits(r.Bits(make([]byte, 40*m.PerSymbolBits())))
	}
	reflections := map[int]int{} // tagIdx -> times its reflection entered the combine
	var owners []int
	sess := &Session{
		Source: enb,
		Tags: []*Tag{
			{Mod: mods[0], Park: true},
			{Mod: mods[1]}, // no park: silent when not scheduled
		},
		Owner: func(n int) int { return n % 2 },
		Link:  channel.NewLink(r.Fork(1), 0),
		Taps: Taps{Reflected: func(_ *Frame, tagIdx int, _ []complex128) {
			reflections[tagIdx]++
		}},
		Sink: SinkFunc(func(f *Frame) bool {
			owners = append(owners, f.Owner)
			if len(f.Records) == 0 {
				t.Errorf("subframe %d: owner %d produced no symbol records", f.N, f.Owner)
			}
			return true
		}),
	}
	sess.Run(4)
	for i, o := range owners {
		if o != i%2 {
			t.Fatalf("subframe %d owned by %d, want %d", i, o, i%2)
		}
	}
	// Tag 0 parks when not scheduled (4 reflections); tag 1 only reflects the
	// 2 subframes it owns.
	if reflections[0] != 4 || reflections[1] != 2 {
		t.Fatalf("reflection counts %v, want tag0=4 tag1=2", reflections)
	}
}

// TestSessionOwnerOutOfRangePanics pins Session.Owner's range contract: -1
// schedules no transmitter (the parked tags still echo), and any other
// index outside Tags panics with a message naming it and the tag count.
func TestSessionOwnerOutOfRangePanics(t *testing.T) {
	cfg := enodeb.DefaultConfig(ltephy.BW1_4)
	newSession := func(owner int) *Session {
		p := cfg.Params
		return &Session{
			Source: enodeb.New(cfg),
			Tags: []*Tag{
				{Mod: tag.NewModulator(tag.ModConfig{Params: p, ID: 1}), Park: true},
				{Mod: tag.NewModulator(tag.ModConfig{Params: p, ID: 2}), Park: true},
			},
			Owner: func(int) int { return owner },
		}
	}

	reflected := 0
	idle := newSession(-1)
	idle.Taps.Reflected = func(*Frame, int, []complex128) { reflected++ }
	if f := idle.Step(); f.Owner != -1 || f.Records != nil || reflected != 2 {
		t.Fatalf("owner -1: frame owner %d, %d records, %d reflections; want -1, none, 2 parked echoes",
			f.Owner, len(f.Records), reflected)
	}

	for _, owner := range []int{2, 7, -2} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("Owner(0) = %d, want -1 or an index into the 2 tags", owner)
				if !strings.Contains(msg, want) {
					t.Errorf("owner %d: panic %q, want one containing %q", owner, msg, want)
				}
			}()
			newSession(owner).Step()
		}()
	}
}

func TestSessionAdvanceHold(t *testing.T) {
	enb := enodeb.New(enodeb.DefaultConfig(ltephy.BW1_4))
	hold := true
	sess := &Session{Source: enb, Sink: SinkFunc(func(f *Frame) bool { return !hold })}
	f := sess.Step()
	if sess.StartSample() != 0 {
		t.Fatalf("held step advanced the stream position to %d", sess.StartSample())
	}
	hold = false
	sess.Step()
	if want := len(f.Subframe.Samples); sess.StartSample() != want {
		t.Fatalf("stream position %d after one advanced subframe, want %d", sess.StartSample(), want)
	}
	if sess.Subframes() != 2 {
		t.Fatalf("subframe count %d, want 2", sess.Subframes())
	}
}

func TestRunUntil(t *testing.T) {
	enb := enodeb.New(enodeb.DefaultConfig(ltephy.BW1_4))
	sess := &Session{Source: enb}
	if ran := sess.RunUntil(5, func() bool { return true }); ran != 0 {
		t.Fatalf("done-at-start ran %d subframes", ran)
	}
	n := 0
	sess.Sink = SinkFunc(func(*Frame) bool { n++; return true })
	if ran := sess.RunUntil(5, func() bool { return n >= 2 }); ran != 2 {
		t.Fatalf("ran %d subframes, want 2", ran)
	}
}

func TestBitAccount(t *testing.T) {
	if ber := (BitAccount{}).BER(); ber != 0.5 {
		t.Fatalf("empty-account BER = %v, want 0.5 (coin flip)", ber)
	}
	if ber := (BitAccount{Errs: 1, Total: 4}).BER(); ber != 0.25 {
		t.Fatalf("BER = %v, want 0.25", ber)
	}
	k := &DemodSink{}
	k.Account(0).Errs = 1
	k.Account(0).Total = 3
	k.Account(2).Total = 5
	if tot := k.Totals(); tot.Errs != 1 || tot.Total != 8 {
		t.Fatalf("Totals = %+v, want {1 8}", tot)
	}
}

// testChain builds one small end-to-end configuration; both the Session and
// the hand-rolled reference loop below construct it identically so their RNG
// streams line up draw for draw.
func testChain(seed uint64) (*enodeb.ENodeB, *tag.Modulator, *ue.LTEReceiver, *ue.ScatterDemod, *rng.Source, float64) {
	cfg := enodeb.DefaultConfig(ltephy.BW1_4)
	cfg.Seed = seed
	enb := enodeb.New(cfg)
	p := cfg.Params
	mod := tag.NewModulator(tag.ModConfig{Params: p, TimingErrorUnits: 2, SampleOffset: 1})
	r := rng.New(seed + 13)
	mod.QueueBits(r.Bits(make([]byte, 4*12*mod.PerSymbolBits())))
	lteRx := ue.NewLTEReceiver(p, cfg.Scheme)
	sc := ue.NewScatterDemod(ue.DefaultScatterConfig(p))
	// 20 dB below the backscatter path's received power: decodes cleanly but
	// with enough noise that every stage (noise draws included) is exercised.
	noiseW := 0.01 * math.Pow(10, -70.0/10) * math.Pow(10, -20.0/10)
	return enb, mod, lteRx, sc, r.Fork(1), noiseW
}

// TestSessionMatchesHandRolledLoop pins the engine against a literal
// transliteration of the loop it replaced: same constructions, same RNG
// streams, compared on the per-bit error pattern, sync state and stream
// position after four subframes.
func TestSessionMatchesHandRolledLoop(t *testing.T) {
	const subframes = 4

	// Engine run.
	enb, mod, lteRx, sc, noiseRng, noiseW := testChain(3)
	sink := &DemodSink{LTE: lteRx, Scatter: sc, RecordPattern: true}
	sess := &Session{
		Source: enb,
		Direct: GainDB(-40),
		Tags:   []*Tag{{Mod: mod, Path: GainDB(-70)}},
		Link:   channel.NewLink(noiseRng, noiseW),
		Sink:   sink,
	}
	sess.Run(subframes)

	// Reference loop.
	enb2, mod2, lteRx2, sc2, noiseRng2, noiseW2 := testChain(3)
	direct, scat := GainDB(-40), GainDB(-70)
	var pattern []bool
	synced := false
	startSample := 0
	for i := 0; i < subframes; i++ {
		sf := enb2.NextSubframe()
		burst := sf.Index == 0 || sf.Index == 5
		reflected, recs := mod2.ModulateSubframe(sf.Samples, sf.Index, burst)
		rx := channel.Combine(noiseRng2, noiseW2, direct.Apply(sf.Samples), scat.Apply(reflected))
		lte, err := lteRx2.ReceiveSubframe(rx, sf.Index)
		if err != nil {
			startSample += len(rx)
			continue
		}
		var res *ue.ScatterResult
		if lte.OK {
			if burst {
				res = sc2.AcquireBurst(rx, lte.RefSamples, sf.Index, startSample)
				if res.Synced {
					synced = true
					d := sc2.DemodSubframe(rx, lte.RefSamples, sf.Index, startSample, true)
					res.Decisions = d.Decisions
				}
			} else {
				res = sc2.DemodSubframe(rx, lte.RefSamples, sf.Index, startSample, false)
			}
		}
		startSample += len(rx)
		if res == nil {
			continue
		}
		byBits := map[int][]byte{}
		for _, rec := range recs {
			if rec.Bits != nil && !rec.IsPreamble {
				byBits[rec.Symbol] = rec.Bits
			}
		}
		for _, dec := range res.Decisions {
			if want, ok := byBits[dec.Symbol]; ok && len(want) == len(dec.Bits) {
				for k := range want {
					pattern = append(pattern, want[k] != dec.Bits[k])
				}
			}
		}
	}

	if sink.Synced != synced {
		t.Fatalf("engine synced=%v, reference %v", sink.Synced, synced)
	}
	if sess.StartSample() != startSample {
		t.Fatalf("engine stream position %d, reference %d", sess.StartSample(), startSample)
	}
	if len(sink.Pattern) == 0 {
		t.Fatal("engine compared no bits — chain never came up")
	}
	if len(sink.Pattern) != len(pattern) {
		t.Fatalf("engine compared %d bits, reference %d", len(sink.Pattern), len(pattern))
	}
	for i := range pattern {
		if sink.Pattern[i] != pattern[i] {
			t.Fatalf("error pattern diverges at bit %d", i)
		}
	}
}

// TestSessionsIndependentUnderConcurrency runs distinct Sessions on distinct
// stages concurrently; under -race this pins the documented contract that
// parallelism lives across Sessions, with no hidden shared state inside the
// engine.
func TestSessionsIndependentUnderConcurrency(t *testing.T) {
	results := make([]float64, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			enb, mod, lteRx, sc, noiseRng, noiseW := testChain(3)
			sink := &DemodSink{LTE: lteRx, Scatter: sc}
			sess := &Session{
				Source: enb,
				Direct: GainDB(-40),
				Tags:   []*Tag{{Mod: mod, Path: GainDB(-70)}},
				Link:   channel.NewLink(noiseRng, noiseW),
				Sink:   sink,
			}
			sess.Run(2)
			results[i] = sink.Totals().BER()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("identical sessions diverged: %v", results)
		}
	}
}

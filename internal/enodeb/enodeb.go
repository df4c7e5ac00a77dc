package enodeb

import (
	"math"

	"lscatter/internal/dsp"
	"lscatter/internal/ltephy"
	"lscatter/internal/modem"
	"lscatter/internal/rng"
)

// Config parameterizes the simulated base station.
type Config struct {
	// Params carries bandwidth, cell identity and oversampling.
	Params ltephy.Params
	// Scheme is the PDSCH modulation (QPSK by default; Fig 32 uses up to
	// 64-QAM to measure LTE's own throughput).
	Scheme modem.Scheme
	// TxPowerDBm is the transmit power (10 dBm for the USRP testbed,
	// 40 dBm with the paper's RF5110 amplifier).
	TxPowerDBm float64
	// Seed drives the payload generator.
	Seed uint64
}

// DefaultConfig returns a 10 dBm QPSK eNodeB at the given bandwidth.
func DefaultConfig(bw ltephy.Bandwidth) Config {
	return Config{
		Params:     ltephy.DefaultParams(bw),
		Scheme:     modem.QPSK,
		TxPowerDBm: 10,
		Seed:       1,
	}
}

// Subframe is one millisecond of downlink output.
type Subframe struct {
	// Index is the subframe number within the radio frame (0..9).
	Index int
	// Grid is the populated resource grid.
	Grid *ltephy.Grid
	// Samples is the oversampled IQ waveform scaled to the transmit power
	// (mean |x|^2 = TxPower in watts).
	Samples []complex128
	// Payload is the PDSCH transport-block information bits.
	Payload []byte
	// DataREs is the PDSCH resource-element count of this subframe.
	DataREs int
}

// ENodeB generates a continuous downlink subframe stream. A single ENodeB is
// not safe for concurrent use, but distinct instances may run on concurrent
// goroutines: the only state they share is ltephy.SharedCache, which is
// concurrency-safe.
type ENodeB struct {
	cfg   Config
	codec *Codec
	rnd   *rng.Source
	sfn   int     // absolute subframe counter
	gain  float64 // deterministic amplitude scale to reach TxPowerDBm
}

// New builds an eNodeB. It panics on invalid parameters.
func New(cfg Config) *ENodeB {
	if err := cfg.Params.Validate(); err != nil {
		panic(err)
	}
	e := &ENodeB{
		cfg:   cfg,
		codec: NewCodec(cfg.Params, cfg.Scheme),
		rnd:   rng.New(cfg.Seed),
	}
	// Calibrate the transmit gain once against a reference waveform: a
	// frame of grids with unit-magnitude symbols on every control/data RE
	// (sync and CRS mapped normally, including the PSS boost). The gain is
	// then a single constant for the whole stream, so a backscatter channel
	// estimate from one subframe holds for all.
	// The reference frame depends only on Params, so the per-subframe
	// waveforms hit ltephy.SharedCache for every eNodeB after the first
	// with the same numerology — New drops from 10 IFFT subframes to 10
	// lookups, which matters because the sweep experiments construct a
	// fresh eNodeB per evaluated point.
	var p float64
	for sf := 0; sf < ltephy.SubframesPerFrame; sf++ {
		g := ltephy.NewGrid(cfg.Params, sf)
		g.MapSyncAndRef()
		ones := make([]complex128, 2*g.K())
		for i := range ones {
			ones[i] = 1
		}
		g.MapControl(ones)
		data := make([]complex128, g.DataCapacity())
		for i := range data {
			data[i] = 1
		}
		g.MapData(data)
		p += dsp.Power(ltephy.SharedCache.Modulate(g))
	}
	p /= ltephy.SubframesPerFrame
	targetW := math.Pow(10, (cfg.TxPowerDBm-30)/10)
	e.gain = math.Sqrt(targetW / p)
	return e
}

// Config returns the eNodeB configuration.
func (e *ENodeB) Config() Config { return e.cfg }

// SubframeCount returns how many subframes have been generated.
func (e *ENodeB) SubframeCount() int { return e.sfn }

// NextSubframe produces the next millisecond of the continuous downlink:
// LTE traffic occupies every subframe (the paper's Observation 1 — this is
// exactly what distinguishes LTE from bursty WiFi as an excitation source).
func (e *ENodeB) NextSubframe() *Subframe {
	idx := e.sfn % ltephy.SubframesPerFrame
	frame := e.sfn / ltephy.SubframesPerFrame
	e.sfn++
	g := ltephy.NewGrid(e.cfg.Params, idx)
	g.MapSyncAndRef()
	if idx == 0 {
		// Broadcast channel: bandwidth + system frame number.
		g.MapPBCH(ltephy.EncodePBCH(e.cfg.Params, ltephy.MIB{BW: e.cfg.Params.BW, SFN: frame % 1024}))
	}
	// Control region: scrambler-driven QPSK, as PDCCH content is opaque to
	// the backscatter system.
	ctrlCap := 2 * g.K() // upper bound; MapControl stops at the region size
	ctrl := modem.Map(modem.QPSK, e.rnd.Bits(make([]byte, 2*ctrlCap)))
	g.MapControl(ctrl)

	dataREs := g.DataCapacity()
	payload := e.rnd.Bits(make([]byte, e.codec.TransportBlockSize(dataREs)))
	syms, err := e.codec.Encode(idx, payload, dataREs)
	if err != nil {
		panic(err) // sizes are derived from each other; cannot happen
	}
	g.MapData(syms)

	samples := ltephy.SharedCache.Modulate(g)
	dsp.Scale(samples, e.gain)
	return &Subframe{
		Index:   idx,
		Grid:    g,
		Samples: samples,
		Payload: payload,
		DataREs: dataREs,
	}
}

// Stream produces n consecutive subframes.
func (e *ENodeB) Stream(n int) []*Subframe {
	out := make([]*Subframe, n)
	for i := range out {
		out[i] = e.NextSubframe()
	}
	return out
}

// Package tag implements the LScatter backscatter tag: the low-power ambient
// LTE synchronization circuit of §3.1 (narrowband front end, diode-RC
// envelope detector, averaging reference and hysteresis comparator) and the
// basic-timing-unit phase modulator of §3.2 that piggybacks bits on the
// ambient waveform while steering clear of PSS/SSS symbols and the cyclic
// prefix.
package tag

import (
	"math/cmplx"

	"lscatter/internal/dsp"
	"lscatter/internal/ltephy"
)

// The synchronization circuit's component values (§3.1, Figure 7). They are
// fixed parts on the tag, so they are constants, not settings.
const (
	// envelopeTau is the R1*C2 time constant of the envelope-smoothing RC:
	// 25 us smooths the microsecond-scale narrowband amplitude ripple while
	// responding within one 71 us PSS symbol.
	envelopeTau = 25e-6
	// averageTau is the averaging-network time constant feeding the
	// comparator reference.
	averageTau = 4e-3
	// tripFactor scales the averaged reference at the comparator's negative
	// input: the envelope must exceed tripFactor times the running average
	// to register a PSS.
	tripFactor = 1.3
	// hysteresis is the comparator hysteresis fraction.
	hysteresis = 0.1
	// comparatorDelay is the comparator propagation delay in seconds
	// (MAX931 class).
	comparatorDelay = 12e-6
)

// SyncConfig configures what the synchronization circuit records; the
// circuit itself is fixed (see the constants above).
type SyncConfig struct {
	// Trace records per-stage outputs for the Figure 8 reproduction.
	Trace bool
}

// Detection is one comparator rising edge: the circuit's belief that a PSS
// just passed.
type Detection struct {
	// SampleIndex is the position in the oversampled input stream at which
	// the comparator tripped.
	SampleIndex int
	// Time is SampleIndex converted to seconds from stream start.
	Time float64
}

// SyncTrace holds the per-stage outputs recorded when SyncConfig.Trace is
// set, at the circuit's internal (decimated) rate.
type SyncTrace struct {
	SampleRate float64
	Envelope   []float64 // RC filter output (Fig 8 black curve)
	Average    []float64 // averaging network output (blue dashed)
	Comparator []byte    // comparator output (red dashed)
}

// SyncCircuit detects the periodic PSS in the ambient LTE stream with analog
// building blocks only — no ADC, correlator or FFT — mirroring Figure 7:
// matching network -> RC envelope -> averaging reference -> comparator.
//
// The front end is modeled as a decimating low-pass chain tuned to the
// central 0.93 MHz where the PSS concentrates boosted cell power for one
// symbol every 5 ms, which is what makes the PSS stand out in the envelope.
type SyncCircuit struct {
	params    ltephy.Params
	decim     []int // cascade of decimation factors
	decimRate float64
	front     *dsp.FIR
	env       *dsp.RC
	avg       *dsp.RC
	comp      *dsp.Comparator
	firs      []*dsp.FIR // cascade anti-alias filters (streaming)
	phase     []int      // per-stage decimation phase counters
	state     bool       // last comparator output (for edge detect)
	samplesIn int        // total oversampled samples consumed
	warmup    int        // decimated samples to ignore while averaging settles
	seen      int        // decimated samples processed
	holdoff   int        // decimated samples to suppress re-triggering
	lastDet   int        // seen-counter at the last detection
	trace     *SyncTrace
}

// NewSyncCircuit builds the circuit for the given waveform parameters.
func NewSyncCircuit(p ltephy.Params, cfg SyncConfig) *SyncCircuit {
	s := &SyncCircuit{params: p}
	// Decimate the oversampled stream down to ~1.92 Msps in stages of <= 8.
	rate := p.SampleRate()
	target := 1.92e6
	for rate/target >= 2 {
		f := 8
		for float64(f) > rate/target {
			f /= 2
		}
		if f < 2 {
			break
		}
		s.decim = append(s.decim, f)
		cut := 0.8 * rate / (2 * float64(f))
		s.firs = append(s.firs, dsp.LowPassFIR(cut, rate, 63))
		s.phase = append(s.phase, 0)
		rate /= float64(f)
	}
	s.decimRate = rate
	// Matching-network selectivity: pass only the PSS half-bandwidth.
	s.front = dsp.LowPassFIR(ltephy.PSSBandwidth/2, rate, 101)
	s.env = dsp.NewRC(envelopeTau, rate)
	s.avg = dsp.NewRC(averageTau, rate)
	s.comp = dsp.NewComparator(hysteresis, int(comparatorDelay*rate))
	s.warmup = int(2.5 * averageTau * rate)
	// Debounce: the FPGA ignores further edges for 2 ms after a detection
	// (well under the 5 ms PSS period) so envelope ripple at the top of a
	// PSS peak cannot double-count.
	s.holdoff = int(2e-3 * rate)
	s.lastDet = -s.holdoff
	if cfg.Trace {
		s.trace = &SyncTrace{SampleRate: rate}
	}
	return s
}

// Trace returns the recorded stage outputs (nil unless tracing was enabled).
func (s *SyncCircuit) Trace() *SyncTrace { return s.trace }

// Process feeds oversampled ambient samples through the circuit and returns
// any PSS detections (comparator rising edges) found in this block. The
// circuit keeps state across calls, so consecutive blocks form one stream.
func (s *SyncCircuit) Process(x []complex128) []Detection {
	var dets []Detection
	for _, v := range x {
		s.samplesIn++
		// Cascaded decimation: a stage computes an output only for the
		// sample it keeps and just pushes the ones it discards.
		keep := true
		for st, fir := range s.firs {
			s.phase[st]++
			if s.phase[st] < s.decim[st] {
				fir.Push(v)
				keep = false
				break
			}
			s.phase[st] = 0
			v = fir.ProcessSample(v)
		}
		if !keep {
			continue
		}
		// Narrowband matching network, envelope, averaging, comparator.
		nb := s.front.ProcessSample(v)
		env := s.env.ProcessSample(cmplx.Abs(nb))
		ref := s.avg.ProcessSample(env)
		out := s.comp.ProcessSample(env, ref*tripFactor)
		s.seen++
		if s.trace != nil {
			s.trace.Envelope = append(s.trace.Envelope, env)
			s.trace.Average = append(s.trace.Average, ref)
			b := byte(0)
			if out {
				b = 1
			}
			s.trace.Comparator = append(s.trace.Comparator, b)
		}
		if out && !s.state && s.seen > s.warmup && s.seen-s.lastDet >= s.holdoff {
			s.lastDet = s.seen
			idx := s.samplesIn - 1
			dets = append(dets, Detection{
				SampleIndex: idx,
				Time:        float64(idx) / s.params.SampleRate(),
			})
		}
		s.state = out
	}
	return dets
}

// NominalDelay returns the circuit's expected detection latency in seconds:
// decimation/filter group delays plus envelope charge time plus comparator
// propagation. The tag subtracts this calibration constant when converting a
// detection time into a PSS timing estimate, leaving only jitter
// (Figure 31 measures the residual).
func (s *SyncCircuit) NominalDelay() float64 {
	delay := 0.0
	rate := s.params.SampleRate()
	for st, f := range s.decim {
		delay += float64(s.firs[st].GroupDelay()) / rate
		rate /= float64(f)
	}
	delay += float64(s.front.GroupDelay()) / s.decimRate
	// Threshold-crossing point on the PSS envelope ramp plus the
	// envelope/averaging RC interaction. Calibrated once against an LTE
	// receiver's PSS timing, exactly as the paper's Figure 31 comparison
	// does; the residual jitter is what Fig 31 plots.
	delay += 7e-6
	delay += comparatorDelay
	return delay
}

// EstimatePSSTime converts a detection into an estimate of the instant the
// PSS symbol began, by subtracting the calibrated nominal delay.
func (s *SyncCircuit) EstimatePSSTime(d Detection) float64 {
	t := d.Time - s.NominalDelay()
	if t < 0 {
		t = 0
	}
	return t
}

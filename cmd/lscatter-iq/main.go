// Command lscatter-iq exports simulated waveforms as raw IQ files
// (interleaved little-endian complex float32, the GNU Radio / inspectrum
// convention), so the signals this repository synthesizes can be examined
// with standard SDR tooling. It can also summarize an existing IQ file.
//
//	lscatter-iq -out lte.cf32 -bw 5 -subframes 10            # clean downlink
//	lscatter-iq -out hybrid.cf32 -bw 5 -subframes 10 -tag    # with a tag
//	lscatter-iq -in hybrid.cf32 -rate 15.36e6                # inspect
//
// Usage errors exit 2 before any file is created: no mode, -in together
// with -out, an unknown -bw, fewer than one -subframes and positional
// arguments, which no mode reads.
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"lscatter/internal/channel"
	"lscatter/internal/dsp"
	"lscatter/internal/enodeb"
	"lscatter/internal/ltephy"
	"lscatter/internal/rng"
	"lscatter/internal/simlink"
	"lscatter/internal/tag"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the capture or the
// summary, reports to stdout and errors to stderr, and returns the exit
// status. Usage errors exit 2 before any file is created.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lscatter-iq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "", "write a synthesized capture to this file")
		in        = fs.String("in", "", "summarize an existing cf32 file")
		bwStr     = fs.String("bw", "5", "LTE bandwidth in MHz")
		subframes = fs.Int("subframes", 10, "capture length in ms")
		withTag   = fs.Bool("tag", false, "include an LScatter tag reflection (-30 dB)")
		rate      = fs.Float64("rate", 0, "sample rate of -in captures (Hz), for reporting")
		seed      = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments: %v", fs.Args())
	case *in != "" && *out != "":
		return usage("-in and -out are exclusive: summarize a capture or write one")
	case *in != "":
		if err := summarize(stdout, *in, *rate); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	case *out == "":
		fs.Usage()
		return 2
	}
	var bw ltephy.Bandwidth
	found := false
	for _, b := range ltephy.Bandwidths {
		if *bwStr+"MHz" == b.String() {
			bw, found = b, true
		}
	}
	if !found {
		return usage("unknown bandwidth %q", *bwStr)
	}
	if *subframes < 1 {
		return usage("-subframes must be >= 1, got %d", *subframes)
	}
	if err := synthesize(stdout, *out, bw, *subframes, *withTag, *seed); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func synthesize(stdout io.Writer, path string, bw ltephy.Bandwidth, subframes int, withTag bool, seed uint64) error {
	cfg := enodeb.DefaultConfig(bw)
	cfg.Seed = seed
	enb := enodeb.New(cfg)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // early returns only; the written capture is closed below
	w := bufio.NewWriter(f)

	// The capture is the pipeline's received stream: clean downlink when the
	// session has no Link (RX aliases the ambient samples), or the
	// direct + attenuated-reflection combine when a tag rides along.
	total := 0
	var werr error
	sess := &simlink.Session{
		Source: enb,
		Sink: simlink.SinkFunc(func(fr *simlink.Frame) bool {
			for _, v := range fr.RX {
				if werr == nil {
					werr = binary.Write(w, binary.LittleEndian, float32(real(v)))
				}
				if werr == nil {
					werr = binary.Write(w, binary.LittleEndian, float32(imag(v)))
				}
			}
			total += len(fr.RX)
			return werr == nil
		}),
	}
	if withTag {
		mod := tag.NewModulator(tag.ModConfig{Params: cfg.Params})
		mod.QueueBits(rng.New(seed + 1).Bits(make([]byte, subframes*12*mod.PerSymbolBits())))
		sess.Direct = simlink.Identity
		sess.Tags = []*simlink.Tag{{Mod: mod, Path: simlink.GainDB(-30)}}
		sess.Link = channel.NewLink(rng.New(seed+2), 0) // noiseless combine, no draws
	}
	sess.Run(subframes)
	if werr != nil {
		return werr
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d samples (%d ms at %.2f Msps) to %s\n",
		total, subframes, cfg.Params.SampleRate()/1e6, path)
	fmt.Fprintf(stdout, "open with: inspectrum -r %.0f %s\n", cfg.Params.SampleRate(), path)
	return nil
}

// summarize reports the sample count, mean power and PAPR of a cf32 file. A
// trailing partial sample is ignored; any other read error is returned.
func summarize(stdout io.Writer, path string, rate float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var samples []complex128
	for {
		var iq [2]float32
		if err := binary.Read(r, binary.LittleEndian, &iq); err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		} else if err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		samples = append(samples, complex(float64(iq[0]), float64(iq[1])))
	}
	if len(samples) == 0 {
		return fmt.Errorf("%s: no complete cf32 samples", path)
	}
	pw := dsp.Power(samples)
	peak := 0.0
	for _, v := range samples {
		if a := real(v)*real(v) + imag(v)*imag(v); a > peak {
			peak = a
		}
	}
	fmt.Fprintf(stdout, "%s: %d samples", path, len(samples))
	if rate > 0 {
		fmt.Fprintf(stdout, " (%.2f ms at %.2f Msps)", float64(len(samples))/rate*1e3, rate/1e6)
	}
	fmt.Fprintf(stdout, "\nmean power %.3g (%.1f dBFS-ish), PAPR %.1f dB\n",
		pw, 10*math.Log10(pw), 10*math.Log10(peak/pw))
	return nil
}

// Command perfbench is the repository benchmark. It drives three workloads
// through the public functions of internal/experiments, internal/core,
// internal/simlink and internal/serve from one process, checks every output
// against recorded values, and prints each metric by name with its unit:
//
//	paper-sweep  experiments.RunAll on a cold waveform cache (lscatter-bench -all)
//	exact-link   a fixed grid of core.Run calls in exact mode at 1.4 and 5 MHz
//	served-mix   two closed-loop clients against an in-process serve.Manager
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload exact-link --seed 3 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 runs the
// traced variant, which times the calls into each layer from outside and
// reports per-layer metrics. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. README.md tables
// every metric and the reason for each workload.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"lscatter/internal/core"
	"lscatter/internal/ltephy"
)

// maxProcs caps the scheduler width: the benchmark is sized for a two-core
// machine, and no workload may use more processors than that.
const maxProcs = 2

// setupProbes is how many separate processes measure set-up time before the
// measured part of a run, and again after it: the machine's speed drifts
// over seconds, and two groups half a minute apart sample more of it.
const setupProbes = 10

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	probe    bool
	record   string
}

// metric is one reported value.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // human-readable context (sample counts), stdout only
}

// outcome is what a workload run returns: operations attempted and failed,
// failed whole-run checks, and its metrics.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   []metric
}

func (o *outcome) add(name, unit string, value float64, note string) {
	o.metrics = append(o.metrics, metric{name: name, unit: unit, value: value, note: note})
}

// fail records a failed whole-run check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// env is the per-process state a workload's set-up produces.
type env struct {
	opts    options
	workDir string // temp directory inside the build directory, removed at exit
	served  *servedEnv
}

// workload binds a name to its set-up and its two run modes.
type workload struct {
	setup     func(e *env) error
	run       func(ctx context.Context, e *env) (*outcome, error)
	runTraced func(ctx context.Context, e *env, tr *tracer) (*outcome, error)
	teardown  func(e *env)
}

var workloads = map[string]workload{
	"paper-sweep": {run: runSweep, runTraced: runSweepTraced},
	"exact-link":  {run: runLink, runTraced: runLinkTraced},
	"served-mix":  {setup: setupServed, run: runServed, runTraced: runServedTraced, teardown: teardownServed},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "paper-sweep, exact-link or served-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: selects the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.BoolVar(&o.probe, "setup-probe", false, "perform the workload's set-up, print a ready line and exit")
	flag.StringVar(&o.record, "record", "", "recompute the recorded outputs of sweep, link or all into perfbench/expected and exit")
	flag.Parse()
	o.trace = trace != 0

	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	if o.record != "" {
		return record(o.record)
	}
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want paper-sweep, exact-link or served-mix)", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", o.seconds)
	}
	if err := checkRecorded(); err != nil {
		return err
	}

	e := &env{opts: o}
	if err := e.makeWorkDir(); err != nil {
		return err
	}
	defer os.RemoveAll(e.workDir)

	if o.probe {
		if err := doSetup(w, e); err != nil {
			return err
		}
		fmt.Println("ready")
		if w.teardown != nil {
			w.teardown(e)
		}
		return nil
	}

	var setups []float64
	if !o.trace {
		before, err := measureSetup(o)
		if err != nil {
			return err
		}
		setups = before
	}
	if err := doSetup(w, e); err != nil {
		return err
	}
	if w.teardown != nil {
		defer w.teardown(e)
	}

	ctx := context.Background()
	var (
		out *outcome
		err error
	)
	if o.trace {
		tr := newTracer()
		out, err = w.runTraced(ctx, e, tr)
		if err == nil {
			err = tr.write(filepath.Join(buildDir(), "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
		}
	} else {
		out, err = w.run(ctx, e)
		if err == nil {
			out.add("peak_rss_mb", "MB", peakRSSMB(), "")
			var after []float64
			after, err = measureSetup(o)
			setups = append(setups, after...)
			out.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups, half before and half after the measured part", len(setups)))
		}
	}
	if err != nil {
		return err
	}
	if err := out.conform("BENCHMARK.json", o.trace); err != nil {
		return err
	}
	return report(out)
}

// doSetup is the set-up every run pays before its first timed operation:
// package initialization has already run; warm-up exercises the exact chain
// once, then the workload's own set-up runs.
func doSetup(w workload, e *env) error {
	warmUp()
	if w.setup != nil {
		return w.setup(e)
	}
	return nil
}

// warmUp runs one short exact link and one semi-analytic link so that lazy
// initialization is done before timing, then empties the waveform cache so
// every workload starts cold.
func warmUp() {
	cfg := core.DefaultLinkConfig(ltephy.BW1_4)
	cfg.Mode = core.Exact
	cfg.Subframes = 2
	core.Run(cfg)
	cfg.Mode = core.SemiAnalytic
	core.Run(cfg)
	ltephy.SharedCache.Reset()
}

// measureSetup starts the benchmark binary setupProbes times in probe mode
// and times each from process start to its ready line; the median is the
// set-up metric.
func measureSetup(o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", o.workload,
			"--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting set-up probe: %w", err)
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		_, _ = io.Copy(io.Discard, stdout) // drain so the probe never blocks on a full pipe
		werr := cmd.Wait()
		if rerr != nil || strings.TrimSpace(line) != "ready" {
			return nil, fmt.Errorf("set-up probe did not report ready (read %q: %v, exit: %v)", line, rerr, werr)
		}
		if werr != nil {
			return nil, fmt.Errorf("set-up probe: %w", werr)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// buildDir is where the benchmark may write: the build directory run.sh
// exports, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func (e *env) makeWorkDir() error {
	root := filepath.Join(buildDir(), "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, e.opts.workload+"-")
	if err != nil {
		return err
	}
	e.workDir = dir
	return nil
}

// report prints every metric on its own line, then the JSON result line.
func report(out *outcome) error {
	sort.SliceStable(out.metrics, func(a, b int) bool { return out.metrics[a].name < out.metrics[b].name })
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := make(map[string]jsonMetric, len(out.metrics))
	for _, m := range out.metrics {
		if _, dup := byName[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		v := m.value
		if math.IsNaN(v) {
			return fmt.Errorf("metric %s is NaN", m.name)
		}
		if math.IsInf(v, 0) {
			// A refused operation misses every latency limit.
			v = math.Copysign(math.MaxFloat64, v)
		}
		byName[m.name] = jsonMetric{Value: v, Unit: m.unit}
		line := fmt.Sprintf("%-32s %14.6g %s", m.name, v, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
	}
	for _, p := range out.problems {
		fmt.Println("check failed:", p)
	}
	if out.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   byName,
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

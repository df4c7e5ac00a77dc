package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
)

// quantile returns the Harrell–Davis estimate of the q-quantile of xs (0
// for an empty sample), 0 < q < 1: the sum of every order statistic
// weighted by a Beta((n+1)q, (n+1)(1-q)) distribution over its rank. The
// one or two order statistics nearest q jump when q falls between two
// clusters of a multimodal sample, as the paper-sweep artifact walls are;
// a weighted sum of the neighbouring ranks moves with them smoothly. A +Inf
// sample (a refused operation) makes every estimate +Inf.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i, x := range s {
		cur := regIncBeta(a, b, float64(i+1)/float64(n))
		if w := cur - prev; w > 0 {
			est += w * x
		}
		prev = cur
	}
	return est
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes, section 6.4).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(a, b, x) / a
	}
	return 1 - front*betaFraction(b, a, 1-x)/b
}

// betaFraction evaluates the continued fraction of I_x(a, b) by the
// modified Lentz method.
func betaFraction(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+even*d)
		c = clamp(1 + even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+odd*d)
		c = clamp(1 + odd/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < 1e-15 {
			break
		}
	}
	return h
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts seconds to milliseconds for every element.
func ms(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * 1e3
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// goStats is a snapshot of the runtime counters the go.* metrics are deltas
// of.
type goStats struct {
	allocBytes float64
	gcCPU      float64
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readGoStats() goStats {
	s := append([]metrics.Sample(nil), goSamples...)
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	return g
}

func (g goStats) sub(prev goStats) goStats {
	return goStats{allocBytes: g.allocBytes - prev.allocBytes, gcCPU: g.gcCPU - prev.gcCPU}
}

func (g goStats) add(o goStats) goStats {
	return goStats{allocBytes: g.allocBytes + o.allocBytes, gcCPU: g.gcCPU + o.gcCPU}
}

// addGo reports the go runtime per-layer metrics for a delta spread over
// passes.
func (o *outcome) addGo(d goStats, passes float64, per string) {
	o.add("go.alloc_mb", "MB", d.allocBytes/1e6/passes, "per "+per)
	o.add("go.gc_cpu_s", "s", d.gcCPU/passes, "per "+per)
}

// benchmarkSpec is the part of BENCHMARK.json the result is checked against.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// conform makes the outcome's metric set match BENCHMARK.json: every
// end-to-end metric must have been measured; per-layer metrics of layers the
// workload never entered are reported as 0. A metric the file does not list,
// or listed with another unit, is a benchmark bug.
func (o *outcome) conform(path string, traced bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading metric list: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := map[string]string{}
	var order []string
	if traced {
		for _, m := range spec.PerLayer {
			want[m.Name] = m.Unit
			order = append(order, m.Name)
		}
	} else {
		for _, m := range spec.EndToEnd {
			want[m.Name] = m.Unit
			order = append(order, m.Name)
		}
	}
	have := map[string]bool{}
	for _, m := range o.metrics {
		unit, ok := want[m.name]
		if !ok {
			return fmt.Errorf("metric %s is not listed in %s", m.name, path)
		}
		if unit != m.unit {
			return fmt.Errorf("metric %s: unit %q, %s says %q", m.name, m.unit, path, unit)
		}
		have[m.name] = true
	}
	for _, name := range order {
		if have[name] {
			continue
		}
		if !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", name)
		}
		o.add(name, want[name], 0, "layer not entered by this workload")
	}
	return nil
}

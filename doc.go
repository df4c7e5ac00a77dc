// Package lscatter is a from-scratch Go reproduction of "Leveraging Ambient
// LTE Traffic for Ubiquitous Passive Communication" (SIGCOMM 2020): the
// LScatter LTE backscatter system, every substrate it rides on (LTE downlink
// PHY, wireless channel, ambient-traffic models), the baselines it is
// compared against, and a benchmark harness that regenerates every table and
// figure of the paper's evaluation.
//
// Start with the README, then:
//
//   - internal/core — the end-to-end link facade (exact and semi-analytic)
//   - internal/ltephy, internal/enodeb — the LTE downlink substrate
//   - internal/tag, internal/ue — the paper's contribution: sync circuit,
//     basic-timing-unit modulator, and the hybrid-signal demodulator
//   - internal/experiments — per-figure reproduction runners, the
//     deterministic worker pool (RunAll) and per-run metrics
//   - examples/ — runnable demonstrations
//   - docs/ — ARCHITECTURE.md (signal path, cache, pool), BENCHMARKS.md
//     (how to measure, recorded baselines) and PERFORMANCE.md (real-time
//     factor, the streamer's fixed-point error budget)
//
// Regeneration is deterministic: per-artifact seeds derive from the master
// seed, so `lscatter-bench -all` prints byte-identical tables at any
// -parallel worker count. The general waveform chain runs slower than real
// time; the fixed-point transport streamer (internal/simlink, internal/fxp)
// synthesizes the received 20 MHz waveform at 14x real time on one core —
// `lscatter-bench -rtf` measures it. The root-level benchmarks in
// bench_test.go regenerate each paper artifact:
//
//	go test -bench=Fig -benchmem .
package lscatter

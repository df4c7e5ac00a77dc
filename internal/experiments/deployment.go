package experiments

import (
	"context"
	"fmt"
	"sync"

	"lscatter/internal/channel"
	"lscatter/internal/core"
	"lscatter/internal/ltephy"
	"lscatter/internal/stats"
	"lscatter/internal/traffic"
)

// DeploymentConfig describes one fleet-scale deployment simulation: a venue,
// an ambient-carrier occupancy model, and a fleet of tags spread across a
// range of tag-to-UE distances, each evaluated as an independent LScatter
// link. It is the job-shaped entry point the serving layer
// (internal/serve) submits work through, but it is usable directly too.
//
// Determinism contract: every random element derives from Seed alone —
// per-tag link seeds via DeriveSeed(Seed, "deploy-tag-<i>"), the occupancy
// sample via DeriveSeed(Seed, "deploy-occupancy") — so the same config
// yields an identical DeploymentResult at any worker count and in any
// execution order.
type DeploymentConfig struct {
	// Venue selects the paper scenario (home §4.3, mall §4.4, outdoor §4.5);
	// it fixes the path-loss exponent and antenna setup.
	Venue traffic.Venue
	// BW is the ambient LTE channel bandwidth.
	BW ltephy.Bandwidth
	// Tags is the fleet size. Tag i sits at a tag-to-UE distance linearly
	// interpolated across [MinTagToUEFt, MaxTagToUEFt].
	Tags int
	// MinTagToUEFt and MaxTagToUEFt bound the fleet's tag-to-UE distances
	// in feet. With a single tag, MinTagToUEFt is used.
	MinTagToUEFt, MaxTagToUEFt float64
	// Traffic is the ambient-carrier occupancy model (traffic.LTE is the
	// paper's always-on downlink; traffic.WiFi/LoRa model duty-cycled
	// carriers whose occupancy scales the achievable goodput).
	Traffic traffic.Tech
	// Hour is the time of day (fractional hours) the occupancy model is
	// sampled at.
	Hour float64
	// Mode selects core.SemiAnalytic (closed-form, cheap enough for large
	// fleets) or core.Exact (bit-true waveform chain per tag).
	Mode core.Mode
	// Subframes is the exact-mode simulated length per tag in ms.
	Subframes int
	// Impair optionally names a rung of the resilience ladder
	// (ImpairmentLevels: "off", "mild", "moderate", "severe") applied to the
	// exact chain of every tag. Empty means "off".
	Impair string
	// TxPowerDBm and TagLossDB are used as given, like every core.LinkConfig
	// field: 0 dBm and a lossless tag are legitimate. The defaults are
	// core.DefaultLinkConfig's.
	TxPowerDBm, TagLossDB float64
	// Seed drives every random element (see the determinism contract above).
	Seed uint64
}

// Validate reports the first structural problem with the config, or nil.
func (c *DeploymentConfig) Validate() error {
	if c.Tags < 1 {
		return fmt.Errorf("deployment: Tags = %d, need at least 1", c.Tags)
	}
	if c.BW < ltephy.BW1_4 || c.BW > ltephy.BW20 {
		return fmt.Errorf("deployment: unknown bandwidth %d", int(c.BW))
	}
	if c.MinTagToUEFt <= 0 {
		return fmt.Errorf("deployment: MinTagToUEFt = %g, need > 0", c.MinTagToUEFt)
	}
	if c.MaxTagToUEFt < c.MinTagToUEFt {
		return fmt.Errorf("deployment: MaxTagToUEFt = %g < MinTagToUEFt = %g",
			c.MaxTagToUEFt, c.MinTagToUEFt)
	}
	if c.Impair != "" && impairmentLevel(c.Impair) == nil {
		return fmt.Errorf("deployment: unknown impairment level %q", c.Impair)
	}
	return nil
}

// impairmentLevel resolves a ladder rung by name, nil when unknown.
func impairmentLevel(name string) *ImpairmentLevel {
	for _, lvl := range ImpairmentLevels() {
		if lvl.Name == name {
			return &lvl
		}
	}
	return nil
}

// TagReport is the per-tag slice of a DeploymentResult.
type TagReport struct {
	// Tag is the fleet index.
	Tag int `json:"tag"`
	// TagToUEFt is the tag's distance to its UE receiver in feet.
	TagToUEFt float64 `json:"tag_to_ue_ft"`
	// Seed is the derived per-tag seed the link evaluation ran with.
	Seed uint64 `json:"seed"`
	// ThroughputBps is the tag's goodput, already scaled by the ambient
	// carrier's occupancy fraction.
	ThroughputBps float64 `json:"throughput_bps"`
	// BER is the backscatter bit error rate.
	BER float64 `json:"ber"`
	// Synced reports preamble acquisition.
	Synced bool `json:"synced"`
	// ScatterSNRdB is the post-matched-filter SNR (exact mode reports 0;
	// the bit-true chain does not expose it).
	ScatterSNRdB float64 `json:"scatter_snr_db"`
	// Reacquisitions counts carrier-loop re-acquisitions (exact mode with
	// impairments only).
	Reacquisitions int `json:"reacquisitions"`
}

// DeploymentResult aggregates a fleet evaluation. Field order — and the
// stats.Summary field order inside — is the byte layout of the serving
// layer's cached result bodies, so treat changes as API changes.
type DeploymentResult struct {
	// Venue, Bandwidth and Traffic echo the config in human-readable form.
	Venue     string `json:"venue"`
	Bandwidth string `json:"bandwidth"`
	Traffic   string `json:"traffic"`
	// Occupancy is the ambient carrier's sampled occupancy fraction; every
	// per-tag throughput is already scaled by it.
	Occupancy float64 `json:"occupancy"`
	// Tags is the fleet size.
	Tags int `json:"tags"`
	// SyncedTags counts tags whose UE acquired the preamble.
	SyncedTags int `json:"synced_tags"`
	// Throughput and BER summarize the per-tag distributions.
	Throughput stats.Summary `json:"throughput"`
	BER        stats.Summary `json:"ber"`
	// FleetGoodputBps is the TDMA view of the fleet: tags share the channel
	// one at a time, so the fleet's long-run goodput is the mean per-tag
	// goodput, not the sum.
	FleetGoodputBps float64 `json:"fleet_goodput_bps"`
	// PerTag holds the per-tag reports in fleet order.
	PerTag []TagReport `json:"per_tag"`
}

// RunDeployment evaluates a deployment config on RunOrdered's pool and
// returns the aggregated result. workers follows the pool's rule: NumCPU
// when workers <= 0, never more than cfg.Tags.
//
// progress, when non-nil, is called with (done, total, tag) after each tag
// completes, where tag is the finished tag's full report — the serving
// layer streams these as per-tag rows. Calls are serialized and done is
// strictly increasing, but which tag finishes at which call is unspecified
// under a concurrent pool. The result does not depend on the worker count:
// per-tag seeds derive from (Seed, tag index) and the per-tag reports are
// assembled in fleet order.
//
// Cancelling ctx stops dispatching new tags, waits for in-flight ones, and
// returns (nil, ctx.Err()).
func RunDeployment(ctx context.Context, cfg DeploymentConfig, workers int, progress func(done, total int, tag TagReport)) (*DeploymentResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// One occupancy sample per run: the fleet shares one ambient carrier.
	occ := traffic.NewModel(cfg.Traffic, cfg.Venue, DeriveSeed(cfg.Seed, "deploy-occupancy"))
	frac := occ.Sample(cfg.Hour)

	var (
		mu   sync.Mutex
		done int
	)
	reports, err := RunOrdered(ctx, cfg.Tags, workers, func(i, _ int) (TagReport, error) {
		r := cfg.runTag(i, frac)
		if progress != nil {
			mu.Lock()
			done++
			progress(done, cfg.Tags, r)
			mu.Unlock()
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	res := &DeploymentResult{
		Venue:     cfg.Venue.String(),
		Bandwidth: cfg.BW.String(),
		Traffic:   cfg.Traffic.String(),
		Occupancy: frac,
		Tags:      cfg.Tags,
		PerTag:    reports,
	}
	var thr, ber stats.Aggregate
	for _, r := range reports {
		thr.Add(r.ThroughputBps)
		ber.Add(r.BER)
		if r.Synced {
			res.SyncedTags++
		}
	}
	res.Throughput = thr.Summary()
	res.BER = ber.Summary()
	res.FleetGoodputBps = res.Throughput.Mean
	return res, nil
}

// tagDistanceFt places tag i on the fleet's distance ramp.
func (c *DeploymentConfig) tagDistanceFt(i int) float64 {
	if c.Tags <= 1 {
		return c.MinTagToUEFt
	}
	step := (c.MaxTagToUEFt - c.MinTagToUEFt) / float64(c.Tags-1)
	return c.MinTagToUEFt + step*float64(i)
}

// runTag evaluates one tag's link with its derived seed.
func (c *DeploymentConfig) runTag(i int, occupancy float64) TagReport {
	seed := DeriveSeed(c.Seed, fmt.Sprintf("deploy-tag-%d", i))
	d := c.tagDistanceFt(i)

	var link core.LinkConfig
	switch c.Venue {
	case traffic.Mall:
		link = mallLink(seed, d)
	case traffic.Outdoor:
		link = outdoorLink(seed, d)
	default:
		link = homeLink(seed)
		link.TagToUEM = channel.FeetToMeters(d)
		link.ENodeBToUEM = channel.FeetToMeters(d + 3)
	}
	link.BW = c.BW
	link.Mode = c.Mode
	link.TxPowerDBm = c.TxPowerDBm
	link.TagLossDB = c.TagLossDB
	if c.Subframes > 0 {
		link.Subframes = c.Subframes
	}
	if lvl := impairmentLevel(c.Impair); lvl != nil && lvl.Impair.Active() {
		ic := lvl.Impair
		ic.Seed = seed ^ 0xa24baed4963ee407
		link.Impair = &ic
	}

	rep := core.Run(link)
	return TagReport{
		Tag:            i,
		TagToUEFt:      d,
		Seed:           seed,
		ThroughputBps:  rep.ThroughputBps * occupancy,
		BER:            rep.BER,
		Synced:         rep.Synced,
		ScatterSNRdB:   rep.ScatterSNRdB,
		Reacquisitions: rep.Reacquisitions,
	}
}

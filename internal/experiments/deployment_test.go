package experiments

import (
	"context"
	"reflect"
	"testing"

	"lscatter/internal/core"
	"lscatter/internal/ltephy"
	"lscatter/internal/traffic"
)

func tinyDeployment() DeploymentConfig {
	link := core.DefaultLinkConfig(ltephy.BW20)
	return DeploymentConfig{
		Venue:        traffic.Home,
		BW:           ltephy.BW20,
		Tags:         9,
		MinTagToUEFt: 3,
		MaxTagToUEFt: 15,
		Traffic:      traffic.LTE,
		Hour:         12,
		Mode:         core.SemiAnalytic,
		TxPowerDBm:   link.TxPowerDBm,
		TagLossDB:    link.TagLossDB,
		Seed:         42,
	}
}

func TestDeploymentDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := tinyDeployment()
	base, err := RunDeployment(context.Background(), cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 0 takes the pool's NumCPU rule, like every other caller of RunOrdered.
	for _, workers := range []int{0, 2, 4, 16} {
		got, err := RunDeployment(context.Background(), cfg, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d result differs from sequential:\n%+v\nvs\n%+v", workers, got, base)
		}
	}
}

func TestDeploymentPerTagSeedsDecorrelated(t *testing.T) {
	cfg := tinyDeployment()
	res, err := RunDeployment(context.Background(), cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tags != cfg.Tags || len(res.PerTag) != cfg.Tags {
		t.Fatalf("fleet size mismatch: %d tags, %d reports", res.Tags, len(res.PerTag))
	}
	seeds := map[uint64]bool{}
	for i, r := range res.PerTag {
		if r.Tag != i {
			t.Fatalf("report %d carries tag index %d", i, r.Tag)
		}
		if seeds[r.Seed] {
			t.Fatalf("duplicate per-tag seed %d", r.Seed)
		}
		seeds[r.Seed] = true
	}
	// The distance ramp is monotone from Min to Max.
	if got := res.PerTag[0].TagToUEFt; got != cfg.MinTagToUEFt {
		t.Fatalf("first tag at %g ft, want %g", got, cfg.MinTagToUEFt)
	}
	if got := res.PerTag[cfg.Tags-1].TagToUEFt; got != cfg.MaxTagToUEFt {
		t.Fatalf("last tag at %g ft, want %g", got, cfg.MaxTagToUEFt)
	}
}

func TestDeploymentProgressMonotone(t *testing.T) {
	cfg := tinyDeployment()
	var calls []int
	tags := map[int]bool{}
	_, err := RunDeployment(context.Background(), cfg, 4, func(done, total int, tag TagReport) {
		if total != cfg.Tags {
			t.Errorf("progress total = %d, want %d", total, cfg.Tags)
		}
		calls = append(calls, done)
		if tags[tag.Tag] {
			t.Errorf("tag %d reported finished twice", tag.Tag)
		}
		tags[tag.Tag] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != cfg.Tags {
		t.Fatalf("%d progress calls, want %d", len(calls), cfg.Tags)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not strictly increasing by 1", calls)
		}
	}
	// Every tag report arrives exactly once across the callback stream.
	for i := 0; i < cfg.Tags; i++ {
		if !tags[i] {
			t.Fatalf("tag %d never reported via progress", i)
		}
	}
}

func TestDeploymentCancellation(t *testing.T) {
	cfg := tinyDeployment()
	cfg.Tags = 64
	ctx, cancel := context.WithCancel(context.Background())
	res, err := RunDeployment(ctx, cfg, 2, func(done, total int, tag TagReport) {
		if done == 2 {
			cancel()
		}
	})
	if err != context.Canceled || res != nil {
		t.Fatalf("(%v, %v), want (nil, context.Canceled)", res, err)
	}
}

func TestDeploymentValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*DeploymentConfig)
		ok     bool
	}{
		{"valid", func(c *DeploymentConfig) {}, true},
		{"zero tags", func(c *DeploymentConfig) { c.Tags = 0 }, false},
		{"zero min distance", func(c *DeploymentConfig) { c.MinTagToUEFt = 0 }, false},
		{"max below min", func(c *DeploymentConfig) { c.MaxTagToUEFt = 1 }, false},
		{"bad bandwidth", func(c *DeploymentConfig) { c.BW = ltephy.Bandwidth(99) }, false},
		{"bad impairment", func(c *DeploymentConfig) { c.Impair = "apocalyptic" }, false},
		{"known impairment", func(c *DeploymentConfig) { c.Impair = "mild" }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyDeployment()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected validation error, got nil")
			}
		})
	}
}

func TestDeploymentExactModeRuns(t *testing.T) {
	cfg := tinyDeployment()
	cfg.BW = ltephy.BW1_4
	cfg.Tags = 2
	cfg.MaxTagToUEFt = 6
	cfg.Mode = core.Exact
	cfg.Subframes = 2
	res, err := RunDeployment(context.Background(), cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SyncedTags == 0 {
		t.Fatal("no tag synced in the exact smart-home close-range scenario")
	}
	for _, r := range res.PerTag {
		if r.ThroughputBps <= 0 {
			t.Fatalf("tag %d throughput %v, want > 0", r.Tag, r.ThroughputBps)
		}
	}
}

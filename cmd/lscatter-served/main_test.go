package main

import (
	"strings"
	"testing"
	"time"

	"lscatter/internal/serve"
)

func TestValidateFlags(t *testing.T) {
	valid := serve.Options{Workers: 2, JobWorkers: 4, QueueDepth: 64, StoreEntries: 256, DiskMaxBytes: 256 << 20}
	for _, tc := range []struct {
		name  string
		edit  func(*serve.Options)
		drain time.Duration
		args  []string
		want  string // substring of the error; "" means valid
	}{
		{"defaults", nil, 30 * time.Second, nil, ""},
		{"ones", func(o *serve.Options) {
			*o = serve.Options{Workers: 1, JobWorkers: 1, QueueDepth: 1, StoreEntries: 1, DiskMaxBytes: 1}
		}, 0, nil, ""},
		{"positional", nil, 30 * time.Second, []string{"extra"}, "unexpected arguments"},
		{"zero workers", func(o *serve.Options) { o.Workers = 0 }, 30 * time.Second, nil, "-workers"},
		{"negative workers", func(o *serve.Options) { o.Workers = -1 }, 30 * time.Second, nil, "-workers"},
		{"zero job workers", func(o *serve.Options) { o.JobWorkers = 0 }, 30 * time.Second, nil, "-job-workers"},
		{"zero queue", func(o *serve.Options) { o.QueueDepth = 0 }, 30 * time.Second, nil, "-queue"},
		{"negative queue", func(o *serve.Options) { o.QueueDepth = -8 }, 30 * time.Second, nil, "-queue"},
		{"zero store", func(o *serve.Options) { o.StoreEntries = 0 }, 30 * time.Second, nil, "-store"},
		{"zero disk budget", func(o *serve.Options) { o.DiskMaxBytes = 0 }, 30 * time.Second, nil, "-disk-max-bytes"},
		{"negative disk budget", func(o *serve.Options) { o.DiskMaxBytes = -1 }, 30 * time.Second, nil, "-disk-max-bytes"},
		{"negative drain", nil, -time.Second, nil, "-drain"},
	} {
		opts := valid
		if tc.edit != nil {
			tc.edit(&opts)
		}
		err := validateFlags(opts, tc.drain, tc.args)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

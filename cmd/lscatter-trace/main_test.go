package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrorsExit2 pins the usage errors that exit 2 before any
// occupancy is sampled.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-hours", "0"}, "-hours must be >= 1"},
		{[]string{"-hours", "-3", "-tech", "lte"}, "-hours must be >= 1"},
		{[]string{"-tech", "zigbee"}, "unknown tech"},
		{[]string{"-venue", "airport"}, "unknown venue"},
		{[]string{"-hours", "2", "stray"}, "unexpected arguments: [stray]"},
		{[]string{"-no-such-flag"}, "not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout", tc.args, stdout.String())
		}
	}
}

// TestOccupancyTable: one hour prints one table row and a finite overall
// mean.
func TestOccupancyTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-tech", "wifi", "-venue", "office", "-hours", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[2], "   0  ") || !strings.HasPrefix(lines[3], "overall mean 0.") {
		t.Fatalf("table:\n%s", stdout.String())
	}
}

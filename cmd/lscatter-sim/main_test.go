package main

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestSweepTableIdenticalAcrossWorkerCounts pins the -sweep table: the same
// bytes at -parallel 1 and 4, matching the recorded md5 of each table.
func TestSweepTableIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		md5  string
	}{
		{[]string{"-seed", "1", "-sweep", "10:200:10"}, "789802cde442ab16d683b50f6041e1e1"},
		{[]string{"-seed", "1", "-bw", "1.4", "-mode", "exact", "-subframes", "2", "-sweep", "10:60:10"}, "c3401c749e1885f282f8d93052845fd1"},
	} {
		for _, workers := range []string{"1", "4"} {
			args := slices.Concat(tc.args, []string{"-parallel", workers})
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
			}
			if got := fmt.Sprintf("%x", md5.Sum(stdout.Bytes())); got != tc.md5 {
				t.Errorf("%v: table md5 %s, want %s:\n%s", args, got, tc.md5, stdout.String())
			}
		}
	}
}

// TestUsageErrorsExit2 pins the usage errors that exit 2 before any link
// is evaluated.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-sweep", "10:30:10", "-parallel", "-3"}, "-parallel must be >= 0"},
		{[]string{"-sweep", "30:10:10"}, "bad sweep"},
		{[]string{"-bw", "7"}, "unknown bandwidth"},
		{[]string{"-impair", "moderate"}, "impairments need -mode exact"},
		{[]string{"-no-such-flag"}, "not defined"},
		{[]string{"-mode", "exakt", "-bw", "1.4"}, "unknown mode"},
		{[]string{"-mode", "Exact"}, "unknown mode"},
		{[]string{"-power", "NaN"}, "-power must be finite"},
		{[]string{"-mode", "exact", "-bw", "1.4", "-subframes", "0"}, "-subframes must be >= 1"},
		{[]string{"-sweep", "10:20:10", "stray"}, "unexpected arguments: [stray]"},
		{[]string{"-bw", "1.4", "--", "-mode"}, "unexpected arguments: [-mode]"},
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

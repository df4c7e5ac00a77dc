package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestUsageErrorsExit2 pins the usage errors that exit 2 before the output
// file is created.
func TestUsageErrorsExit2(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "capture.cf32")
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{}, "Usage of lscatter-iq"},
		{[]string{"-out", out, "-tag", "-subframes", "-1"}, "-subframes must be >= 1"},
		{[]string{"-out", out, "-subframes", "0"}, "-subframes must be >= 1"},
		{[]string{"-out", out, "-bw", "7"}, "unknown bandwidth"},
		{[]string{"-in", filepath.Join(dir, "missing.cf32"), "-out", out}, "-in and -out are exclusive"},
		{[]string{"-out", out, "stray"}, "unexpected arguments: [stray]"},
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
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("%v: created %s", tc.args, out)
		}
	}
}

// TestWriteThenSummarize writes a capture with a tag and reads it back: the
// summary counts every written sample.
func TestWriteThenSummarize(t *testing.T) {
	out := filepath.Join(t.TempDir(), "hybrid.cf32")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", out, "-bw", "1.4", "-subframes", "2", "-tag"}, &stdout, &stderr); code != 0 {
		t.Fatalf("write: exit %d: %s", code, stderr.String())
	}
	m := regexp.MustCompile(`wrote (\d+) samples`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("write report %q has no sample count", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-in", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("summarize: exit %d: %s", code, stderr.String())
	}
	if want := out + ": " + m[1] + " samples"; !strings.Contains(stdout.String(), want) {
		t.Fatalf("summary %q, want it to contain %q", stdout.String(), want)
	}
}

// TestSummarizeReportsReadErrors: a read error other than end of file is
// reported, not taken for the end of the capture.
func TestSummarizeReportsReadErrors(t *testing.T) {
	dir := t.TempDir() // opens, but every read fails
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-in", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if want := "read " + dir; !strings.HasPrefix(stderr.String(), want) {
		t.Fatalf("stderr %q, want it to start with %q", stderr.String(), want)
	}
}

package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"lscatter/internal/ltephy"
)

// TestRunRTF runs the default 20 MHz Session measurement and checks the
// report's shape: a finite positive factor, the Session-only JSON keys and a
// rendering that names only the session.
func TestRunRTF(t *testing.T) {
	rep := RunRTF(1)
	if r := rep.SessionFloatRTF; math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
		t.Fatalf("SessionFloatRTF = %v, want finite and > 0", r)
	}
	if want := ltephy.BW20.String(); rep.BW != want {
		t.Fatalf("BW = %q, want %q", rep.BW, want)
	}

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["session_float_rtf"]; !ok {
		t.Errorf("JSON %s lacks session_float_rtf", raw)
	}
	if _, ok := fields["rtf"]; ok {
		t.Errorf("JSON %s still carries the transport rtf key", raw)
	}

	out := rep.Render()
	if !strings.Contains(out, "session:") {
		t.Errorf("Render() does not name the session:\n%s", out)
	}
	if strings.Contains(out, "transport") {
		t.Errorf("Render() still has a transport row:\n%s", out)
	}
}

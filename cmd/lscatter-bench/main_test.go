package main

import (
	"math"
	"strings"
	"testing"

	"lscatter/internal/fleet"
)

func TestValidateFleetFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tags    int
		minutes float64
		load    float64
		want    string // substring of the error; "" means valid
	}{
		{"defaults", 1_000_000, 1, 0.2, ""},
		{"one tag", 1, 1, 0.2, ""},
		{"max tags", fleet.MaxTags, 1, 0.2, ""},
		{"zero load", 10, 1, 0, ""},
		{"zero tags", 0, 1, 0.2, "-fleet-tags"},
		{"negative tags", -3, 1, 0.2, "-fleet-tags"},
		{"too many tags", fleet.MaxTags + 1, 1, 0.2, "-fleet-tags"},
		{"three million tags", 3_000_000, 1, 0.2, "-fleet-tags"},
		{"negative minutes", 10, -1, 0.2, "-fleet-minutes"},
		{"zero minutes", 10, 0, 0.2, "-fleet-minutes"},
		{"NaN minutes", 10, math.NaN(), 0.2, "-fleet-minutes"},
		{"infinite minutes", 10, math.Inf(1), 0.2, "-fleet-minutes"},
		{"negative load", 10, 1, -5, "-fleet-load"},
		{"NaN load", 10, 1, math.NaN(), "-fleet-load"},
		{"infinite load", 10, 1, math.Inf(1), "-fleet-load"},
	} {
		err := validateFleetFlags(tc.tags, tc.minutes, tc.load)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

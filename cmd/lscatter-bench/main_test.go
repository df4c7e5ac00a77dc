package main

import (
	"math"
	"strings"
	"testing"

	"lscatter/internal/fleet"
)

func TestValidateModes(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		args                          []string
		fleet, list, all, rtf, impair bool
		id                            string
		want                          string // substring of the error; "" means valid
	}{
		{name: "no mode"},
		{name: "fleet", fleet: true},
		{name: "list", list: true},
		{name: "all", all: true},
		{name: "id", id: "T1"},
		{name: "impair", impair: true},
		{name: "rtf", rtf: true},
		{name: "all with rtf", all: true, rtf: true},
		{name: "impair with id R1", impair: true, id: "R1"},
		{name: "list with positional", list: true, args: []string{"extra"}, want: "unexpected arguments"},
		{name: "all with positional", all: true, args: []string{"F23"}, want: "unexpected arguments"},
		{name: "id with all", id: "T1", all: true, want: "mutually exclusive"},
		{name: "fleet with id", fleet: true, id: "T1", want: "mutually exclusive"},
		{name: "fleet with list", fleet: true, list: true, want: "mutually exclusive"},
		{name: "list with all", list: true, all: true, want: "mutually exclusive"},
		{name: "impair with all", impair: true, all: true, want: "mutually exclusive"},
		{name: "impair with fleet", impair: true, fleet: true, want: "mutually exclusive"},
		{name: "rtf with id", rtf: true, id: "F23", want: "mutually exclusive"},
		{name: "rtf with list", rtf: true, list: true, want: "mutually exclusive"},
		{name: "impair with id F23", impair: true, id: "F23", want: "-impair"},
	} {
		err := validateModes(tc.args, tc.fleet, tc.list, tc.all, tc.rtf, tc.impair, tc.id)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

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

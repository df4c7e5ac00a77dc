package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"lscatter/internal/core"
	"lscatter/internal/experiments"
	"lscatter/internal/ltephy"
	"lscatter/internal/traffic"
)

// Spec is the wire form of one deployment-simulation request. Fields where
// the JSON zero value is itself meaningful (0 dBm transmit power, a lossless
// tag, midnight) are pointers: absent means "use the documented default",
// an explicit zero is honored as zero. The link defaults (transmit power,
// tag loss, exact-mode subframes) are core.DefaultLinkConfig's.
//
// Unknown fields are rejected at decode time so a typoed knob fails loudly
// instead of silently running the default deployment.
type Spec struct {
	// Venue is "home" (default), "mall" or "outdoor".
	Venue string `json:"venue"`
	// Bandwidth is the LTE channel: "1.4MHz", "3MHz", "5MHz", "10MHz",
	// "15MHz" or "20MHz" (default).
	Bandwidth string `json:"bandwidth"`
	// Tags is the fleet size (default 1). Semi-analytic runs allow up to
	// MaxTags tags, exact runs up to MaxExactTags.
	Tags int `json:"tags"`
	// MinTagToUEFt/MaxTagToUEFt bound the fleet's tag-to-UE distance ramp
	// in feet (defaults 3 and the venue's reach: home 15, mall 60,
	// outdoor 120).
	MinTagToUEFt *float64 `json:"min_tag_to_ue_ft"`
	MaxTagToUEFt *float64 `json:"max_tag_to_ue_ft"`
	// Traffic is the ambient-carrier occupancy model: "lte" (default,
	// always-on), "wifi" or "lora" (duty-cycled; occupancy scales goodput).
	Traffic string `json:"traffic"`
	// Hour is the time of day in [0, 24) the occupancy model is sampled at
	// (default 12; explicit 0 = midnight is honored).
	Hour *float64 `json:"hour"`
	// Mode is "semi-analytic" (default) or "exact" (bit-true chain per tag,
	// capped — see Validate).
	Mode string `json:"mode"`
	// Lane is the sample representation; "float" (the default) is the only
	// accepted value. It is part of the canonical encoding, so dropping it
	// would change every content hash and on-disk artifact name.
	Lane string `json:"lane"`
	// Subframes is the exact-mode simulated length per tag in ms
	// (default 5, cap MaxSubframes).
	Subframes int `json:"subframes"`
	// Impairment names a rung of the resilience ladder: "off" (default),
	// "mild", "moderate" or "severe"; exact mode only.
	Impairment string `json:"impairment"`
	// TxPowerDBm is the eNodeB transmit power (absent = 10 dBm default;
	// explicit 0 = 0 dBm).
	TxPowerDBm *float64 `json:"tx_power_dbm"`
	// TagLossDB is the tag reflection loss (absent = 4 dB default;
	// explicit 0 = lossless).
	TagLossDB *float64 `json:"tag_loss_db"`
	// Seed drives every random element; taken verbatim, 0 included.
	Seed uint64 `json:"seed"`
}

// Service caps: a multi-tenant server must bound the cost of a single
// request. Exact mode simulates the full waveform per tag, so its fleet and
// duration are capped much harder than the closed-form mode.
const (
	// MaxTags bounds semi-analytic fleets.
	MaxTags = 100000
	// MaxExactTags bounds exact-mode fleets.
	MaxExactTags = 64
	// MaxSubframes bounds the exact-mode per-tag duration (ms).
	MaxSubframes = 50
	// maxSpecBytes bounds the request body the decoder will read.
	maxSpecBytes = 1 << 20
)

// exactBWCap is the widest bandwidth an exact-mode request may ask for: the
// 512-point FFT chain stays in service-grade time per tag; wider channels
// belong to the batch CLIs.
const exactBWCap = ltephy.BW5

var venues = map[string]traffic.Venue{
	"home":    traffic.Home,
	"mall":    traffic.Mall,
	"outdoor": traffic.Outdoor,
}

var techs = map[string]traffic.Tech{
	"lte":  traffic.LTE,
	"wifi": traffic.WiFi,
	"lora": traffic.LoRa,
}

// venueReachFt is the default MaxTagToUEFt per venue, matching the paper's
// evaluated ranges (§4.3-4.5).
var venueReachFt = map[string]float64{
	"home":    15,
	"mall":    60,
	"outdoor": 120,
}

// bandwidthByName maps the wire names to ltephy bandwidths.
func bandwidthByName(name string) (ltephy.Bandwidth, bool) {
	for _, bw := range ltephy.Bandwidths {
		if bw.String() == name {
			return bw, true
		}
	}
	return 0, false
}

// DecodeSpec parses one JSON spec from r. It rejects unknown fields,
// trailing data and bodies beyond maxSpecBytes; it does not validate —
// callers chain Normalize for that.
func DecodeSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxSpecBytes))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	// A second Decode must see EOF: two concatenated documents are a
	// malformed request, not a spec plus garbage we silently drop.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errors.New("spec: trailing data after JSON document")
	}
	return &s, nil
}

// Normalize validates the spec and returns a fully-defaulted copy: every
// optional field is filled in, every pointer is non-nil, every enum is
// lower-cased. The normalized form is what Canonical hashes, so two specs
// that differ only in spelling optional fields out explicitly produce the
// same hash — and the same cache entry.
func (s *Spec) Normalize() (*Spec, error) {
	n := *s
	n.Venue = strings.ToLower(n.Venue)
	n.Traffic = strings.ToLower(n.Traffic)
	n.Mode = strings.ToLower(n.Mode)
	n.Lane = strings.ToLower(n.Lane)
	n.Impairment = strings.ToLower(n.Impairment)

	if n.Venue == "" {
		n.Venue = "home"
	}
	if _, ok := venues[n.Venue]; !ok {
		return nil, fmt.Errorf("spec: unknown venue %q (want home, mall or outdoor)", n.Venue)
	}
	if n.Bandwidth == "" {
		n.Bandwidth = ltephy.BW20.String()
	}
	bw, ok := bandwidthByName(n.Bandwidth)
	if !ok {
		return nil, fmt.Errorf("spec: unknown bandwidth %q", n.Bandwidth)
	}
	if n.Traffic == "" {
		n.Traffic = "lte"
	}
	if _, ok := techs[n.Traffic]; !ok {
		return nil, fmt.Errorf("spec: unknown traffic model %q (want lte, wifi or lora)", n.Traffic)
	}
	switch n.Mode {
	case "":
		n.Mode = "semi-analytic"
	case "semi-analytic", "exact":
	default:
		return nil, fmt.Errorf("spec: unknown mode %q (want semi-analytic or exact)", n.Mode)
	}
	if n.Lane == "" {
		n.Lane = "float"
	}
	if n.Lane != "float" {
		return nil, fmt.Errorf("spec: unknown lane %q (float is the only lane)", n.Lane)
	}
	if n.Impairment == "" {
		n.Impairment = "off"
	}
	switch n.Impairment {
	case "off", "mild", "moderate", "severe":
	default:
		return nil, fmt.Errorf("spec: unknown impairment level %q (want off, mild, moderate or severe)", n.Impairment)
	}

	if n.Tags == 0 {
		n.Tags = 1
	}
	if n.Tags < 0 {
		return nil, fmt.Errorf("spec: tags = %d, need >= 1", n.Tags)
	}
	if n.MinTagToUEFt == nil {
		n.MinTagToUEFt = ptr(3.0)
	}
	if n.MaxTagToUEFt == nil {
		n.MaxTagToUEFt = ptr(venueReachFt[n.Venue])
	}
	if *n.MinTagToUEFt <= 0 {
		return nil, fmt.Errorf("spec: min_tag_to_ue_ft = %g, need > 0", *n.MinTagToUEFt)
	}
	if *n.MaxTagToUEFt < *n.MinTagToUEFt {
		return nil, fmt.Errorf("spec: max_tag_to_ue_ft = %g < min_tag_to_ue_ft = %g",
			*n.MaxTagToUEFt, *n.MinTagToUEFt)
	}
	if n.Hour == nil {
		n.Hour = ptr(12.0)
	}
	if *n.Hour < 0 || *n.Hour >= 24 {
		return nil, fmt.Errorf("spec: hour = %g, need [0, 24)", *n.Hour)
	}
	if n.Subframes < 0 {
		return nil, fmt.Errorf("spec: subframes = %d, need >= 0", n.Subframes)
	}

	// Mode-dependent rules. Knobs that only the exact chain honors are
	// rejected — not silently ignored — on semi-analytic requests.
	def := core.DefaultLinkConfig(bw)
	if n.Mode == "exact" {
		if n.Subframes == 0 {
			n.Subframes = def.Subframes
		}
		if n.Subframes > MaxSubframes {
			return nil, fmt.Errorf("spec: subframes = %d exceeds the service cap %d", n.Subframes, MaxSubframes)
		}
		if n.Tags > MaxExactTags {
			return nil, fmt.Errorf("spec: tags = %d exceeds the exact-mode cap %d", n.Tags, MaxExactTags)
		}
		if bw > exactBWCap {
			return nil, fmt.Errorf("spec: exact mode serves bandwidths up to %s (got %s); use the batch CLIs for wider channels",
				exactBWCap, n.Bandwidth)
		}
	} else {
		if n.Tags > MaxTags {
			return nil, fmt.Errorf("spec: tags = %d exceeds the service cap %d", n.Tags, MaxTags)
		}
		if n.Subframes != 0 {
			return nil, errors.New("spec: subframes only applies to exact mode")
		}
		if n.Impairment != "off" {
			return nil, errors.New("spec: the impairment ladder only applies to exact mode")
		}
	}

	// Defaults for the remaining pointers, materialized here so the
	// canonical form is fully explicit.
	if n.TxPowerDBm == nil {
		n.TxPowerDBm = ptr(def.TxPowerDBm)
	}
	if n.TagLossDB == nil {
		n.TagLossDB = ptr(def.TagLossDB)
	}
	return &n, nil
}

func ptr(v float64) *float64 { return &v }

// Canonical returns the normalized spec's canonical JSON encoding: a single
// deterministic byte string with every field explicit. It must only be
// called on the output of Normalize.
func (s *Spec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A normalized Spec is a plain struct of scalars; Marshal cannot
		// fail on it.
		panic(fmt.Sprintf("serve: canonical marshal: %v", err))
	}
	return b
}

// Hash returns the content address of the normalized spec: the first 8
// bytes of the SHA-256 of its canonical encoding, hex-encoded. Two requests
// with equal hashes (and equal seeds) are the same computation.
func (s *Spec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:8])
}

// Deployment translates the normalized spec into the experiments-layer
// config. The pointer fields keep their explicit values; absent fields were
// already materialized to their defaults by Normalize.
func (s *Spec) Deployment() experiments.DeploymentConfig {
	bw, _ := bandwidthByName(s.Bandwidth)
	mode := core.SemiAnalytic
	if s.Mode == "exact" {
		mode = core.Exact
	}
	impairment := s.Impairment
	if impairment == "off" {
		impairment = ""
	}
	return experiments.DeploymentConfig{
		Venue:        venues[s.Venue],
		BW:           bw,
		Tags:         s.Tags,
		MinTagToUEFt: *s.MinTagToUEFt,
		MaxTagToUEFt: *s.MaxTagToUEFt,
		Traffic:      techs[s.Traffic],
		Hour:         *s.Hour,
		Mode:         mode,
		Subframes:    s.Subframes,
		Impair:       impairment,
		TxPowerDBm:   *s.TxPowerDBm,
		TagLossDB:    *s.TagLossDB,
		Seed:         s.Seed,
	}
}

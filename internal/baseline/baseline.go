// Package baseline implements the two comparison systems the paper's
// distance figures plot against LScatter: a FreeRider-style ambient WiFi
// backscatter (symbol-level codeword translation on bursty 2.4 GHz traffic)
// and a symbol-level LTE backscatter (the paper's own strawman: LScatter's
// link with one bit embedded per two LTE symbols).
//
// Both share the channel package's link-budget machinery so that the
// distance figures compare systems over identical geometry, differing only
// in carrier frequency, excitation availability and modulation granularity.
package baseline

import (
	"math"

	"lscatter/internal/channel"
	"lscatter/internal/rng"
	"lscatter/internal/stats"
)

// Report is the outcome of one baseline evaluation.
type Report struct {
	// Linked is true when the excitation was detectable and the receiver
	// could operate.
	Linked bool
	// BER is the backscatter bit error rate while transmitting.
	BER float64
	// ThroughputBps is the goodput including excitation availability.
	ThroughputBps float64
}

// riceanBER Monte-Carlos the BPSK BER at mean Eb/N0 gamma under link fading.
func riceanBER(r *rng.Source, gamma float64, los bool, trials int) float64 {
	var sum float64
	for i := 0; i < trials; i++ {
		sum += stats.BERFromSNR(gamma * channel.FadePower(r, los))
	}
	return sum / float64(trials)
}

// WiFiBackscatter models the enhanced FreeRider comparison system of §4.1:
// symbol-level codeword translation on ambient 802.11g traffic, with a
// USRP-assisted detector that perfectly locates usable WiFi frames (the
// paper grants the baseline this advantage; a realistic envelope detector
// would do strictly worse).
type WiFiBackscatter struct {
	// Geometry in meters.
	APToTagM, TagToRxM, APToRxM float64
	// TxPowerDBm of the WiFi AP (typically 20 dBm).
	TxPowerDBm float64
	// Exponent is the path-loss exponent of the venue.
	Exponent float64
	// LoS selects the fading statistics.
	LoS bool
	// TagLossDB is the reflection/conversion loss.
	TagLossDB float64
	// NoiseFigureDB of the receiver.
	NoiseFigureDB float64
	// Seed for the fading Monte-Carlo.
	Seed uint64
}

// DefaultWiFiBackscatter returns the smart-home WiFi baseline geometry.
func DefaultWiFiBackscatter() WiFiBackscatter {
	return WiFiBackscatter{
		APToTagM:      channel.FeetToMeters(3),
		TagToRxM:      channel.FeetToMeters(3),
		APToRxM:       channel.FeetToMeters(5),
		TxPowerDBm:    20,
		Exponent:      2.2,
		LoS:           true,
		TagLossDB:     4,
		NoiseFigureDB: 7,
		Seed:          1,
	}
}

// WiFi 802.11g OFDM constants.
const (
	wifiSymbolDur = 4e-6
	// FreeRider embeds one bit per two OFDM symbols.
	wifiBitDur = 2 * wifiSymbolDur
	// wifiRawRate is the instantaneous backscatter bit rate while a usable
	// WiFi frame is on the air.
	wifiRawRate = 1 / wifiBitDur // 125 kbps
	// wifiFrameEff is the fraction of frame airtime usable for piggyback
	// bits (preamble, SIG and ACK overhead excluded).
	wifiFrameEff = 0.85
	// wifiImplLossDB is the implementation loss of codeword-translation
	// detection against the strong direct path (CSI-perturbation decisions
	// are far from matched-filter optimal).
	wifiImplLossDB = 15
	// frameBits is the backscatter packet size: errors are counted at the
	// packet level because codeword translation delivers whole frames
	// guarded by a checksum.
	frameBits = 96
)

// packetSuccess returns (1-BER)^frameBits, the delivery rate of checksummed
// backscatter frames.
func packetSuccess(ber float64) float64 {
	return math.Pow(1-ber, frameBits)
}

// Evaluate computes the baseline's performance for one measurement window
// with the given 2.4 GHz occupancy and the fraction of that airtime carried
// by actual WiFi (vs ZigBee/BLE, unusable for codeword translation).
func (w WiFiBackscatter) Evaluate(occupancy, usableFrac float64) Report {
	r := rng.New(w.Seed)
	pl := channel.PathLoss{FreqHz: 2.437e9, Exponent: w.Exponent}
	scatDBm := w.TxPowerDBm - pl.LossDB(w.APToTagM) - w.TagLossDB - pl.LossDB(w.TagToRxM) - 3.92
	n0 := channel.NoiseFloorW(1, w.NoiseFigureDB) // per-Hz
	eb := channel.DBmToWatts(scatDBm) * wifiBitDur
	gamma := eb / n0 / math.Pow(10, wifiImplLossDB/10)

	// The receiver must also decode the WiFi frame itself.
	directSNR := channel.DBmToWatts(w.TxPowerDBm-pl.LossDB(w.APToRxM)) / channel.NoiseFloorW(16.6e6, w.NoiseFigureDB)
	rep := Report{Linked: directSNR > math.Pow(10, 0.5)} // ~5 dB for base-rate OFDM
	if !rep.Linked {
		rep.BER = 0.5
		return rep
	}
	rep.BER = riceanBER(r, gamma, w.LoS, 2000)
	rep.ThroughputBps = occupancy * usableFrac * wifiRawRate * wifiFrameEff * packetSuccess(rep.BER)
	return rep
}

// SymbolLevelLTE models the paper's strawman comparison: identical LTE
// excitation and geometry to LScatter, but modulating one bit per two LTE
// symbols (the WiFi-backscatter technique transplanted). Its raw rate is
// three orders of magnitude below LScatter's; its per-bit energy is much
// higher, which is why it overtakes WiFi backscatter beyond ~80 ft (Fig 23).
type SymbolLevelLTE struct {
	// Geometry in meters.
	ENodeBToTagM, TagToUEM, ENodeBToUEM float64
	// TxPowerDBm of the eNodeB.
	TxPowerDBm float64
	// CarrierHz (680 MHz white space).
	CarrierHz float64
	// Exponent is the venue path-loss exponent.
	Exponent float64
	// LoS selects fading statistics.
	LoS bool
	// TagLossDB, NoiseFigureDB as in core.
	TagLossDB, NoiseFigureDB float64
	// Antenna gains.
	ENodeBAntennaDB, TagAntennaDB, UEAntennaDB float64
	// Seed for the fading Monte-Carlo.
	Seed uint64
}

// DefaultSymbolLevelLTE mirrors core.DefaultLinkConfig geometry.
func DefaultSymbolLevelLTE() SymbolLevelLTE {
	return SymbolLevelLTE{
		ENodeBToTagM:    channel.FeetToMeters(3),
		TagToUEM:        channel.FeetToMeters(3),
		ENodeBToUEM:     channel.FeetToMeters(5),
		TxPowerDBm:      10,
		CarrierHz:       680e6,
		Exponent:        2.2,
		LoS:             true,
		TagLossDB:       4,
		NoiseFigureDB:   7,
		ENodeBAntennaDB: 6,
		TagAntennaDB:    2,
		UEAntennaDB:     2,
		Seed:            1,
	}
}

// symbolLevelRate is one bit per two LTE symbols (71.4 us each).
const symbolLevelRate = 1 / (2 * 71.4e-6) // ~7 kbps

// Evaluate computes the strawman's BER and throughput. LTE excitation is
// continuous, so occupancy is always 1.
func (s SymbolLevelLTE) Evaluate() Report {
	r := rng.New(s.Seed)
	pl := channel.PathLoss{FreqHz: s.CarrierHz, Exponent: s.Exponent}
	scatDBm := s.TxPowerDBm - pl.LossDB(s.ENodeBToTagM) + s.ENodeBAntennaDB + s.TagAntennaDB -
		s.TagLossDB - pl.LossDB(s.TagToUEM) + s.TagAntennaDB + s.UEAntennaDB - 3.92
	n0 := channel.NoiseFloorW(1, s.NoiseFigureDB)
	// A bit integrates two full symbols of scatter energy, coherently
	// combined across the whole band: no per-unit fading, only link fading.
	eb := channel.DBmToWatts(scatDBm) * 2 * 71.4e-6
	gamma := eb / n0

	occupied := 18e6
	directSNR := channel.DBmToWatts(s.TxPowerDBm-pl.LossDB(s.ENodeBToUEM)+s.ENodeBAntennaDB+s.UEAntennaDB) /
		channel.NoiseFloorW(occupied, s.NoiseFigureDB)
	rep := Report{Linked: directSNR > math.Pow(10, 0.5)}
	if !rep.Linked {
		rep.BER = 0.5
		return rep
	}
	rep.BER = riceanBER(r, gamma, s.LoS, 2000)
	rep.ThroughputBps = symbolLevelRate * packetSuccess(rep.BER)
	return rep
}

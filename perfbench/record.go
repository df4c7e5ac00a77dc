package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lscatter/internal/core"
	"lscatter/internal/experiments"
	"lscatter/internal/ltephy"
)

// The recorded outputs every run is checked against. They are regenerated
// with `bash perfbench/run.sh --record all` from the repository root, after a
// change that is meant to alter results; review the diff like code.
var (
	//go:embed expected/sweep.json
	sweepJSON []byte
	//go:embed expected/link.json
	linkJSON []byte
)

// sweepRecord is the recorded output of `lscatter-bench -all -seed Seed`.
type sweepRecord struct {
	Seed uint64 `json:"seed"`
	// StdoutMD5 is the md5 of the whole rendered output, exactly what
	// `lscatter-bench -all -seed Seed | md5sum` prints.
	StdoutMD5 string `json:"stdout_md5"`
	// Artifacts maps each artifact ID to the sha256 of its rendered table.
	Artifacts map[string]string `json:"artifacts"`
}

// linkRecord is the recorded core.Run outcome of one exact-link grid point.
type linkRecord struct {
	BER          float64 `json:"ber"`
	BitsCompared int     `json:"bits_compared"`
	Synced       bool    `json:"synced"`
	LTEOK        bool    `json:"lte_ok"`
}

func recordOf(r core.LinkReport) linkRecord {
	return linkRecord{BER: r.BER, BitsCompared: r.BitsCompared, Synced: r.Synced, LTEOK: r.LTEOK}
}

var (
	sweepRecords []sweepRecord
	// linkRecords[k][i] is grid point i under seed set k.
	linkRecords [][]linkRecord
)

// checkRecorded parses the embedded recordings and checks they cover the
// workloads' input tables.
func checkRecorded() error {
	if err := json.Unmarshal(sweepJSON, &sweepRecords); err != nil {
		return fmt.Errorf("expected/sweep.json: %w", err)
	}
	if err := json.Unmarshal(linkJSON, &linkRecords); err != nil {
		return fmt.Errorf("expected/link.json: %w", err)
	}
	if len(sweepRecords) != len(sweepSeeds) {
		return fmt.Errorf("expected/sweep.json holds %d seeds, the sweep table %d; re-record", len(sweepRecords), len(sweepSeeds))
	}
	for i, r := range sweepRecords {
		if r.Seed != sweepSeeds[i] {
			return fmt.Errorf("expected/sweep.json entry %d is seed %d, want %d; re-record", i, r.Seed, sweepSeeds[i])
		}
	}
	if len(linkRecords) != linkSeedSets {
		return fmt.Errorf("expected/link.json holds %d seed sets, want %d; re-record", len(linkRecords), linkSeedSets)
	}
	for k, set := range linkRecords {
		if len(set) != len(linkGrid) {
			return fmt.Errorf("expected/link.json set %d holds %d points, the grid %d; re-record", k, len(set), len(linkGrid))
		}
	}
	return nil
}

// record recomputes the recordings of which ("sweep", "link" or "all") from
// the current code.
func record(which string) error {
	switch which {
	case "sweep":
		return recordSweep()
	case "link":
		return recordLink()
	case "all":
		if err := recordSweep(); err != nil {
			return err
		}
		return recordLink()
	}
	return fmt.Errorf("--record %q: want sweep, link or all", which)
}

func recordSweep() error {
	var sweeps []sweepRecord
	for _, seed := range sweepSeeds {
		ltephy.SharedCache.Reset()
		start := time.Now()
		res, err := experiments.RunAll(context.Background(), seed, 1)
		if err != nil {
			return err
		}
		rec := sweepRecord{Seed: seed, StdoutMD5: stdoutMD5(res), Artifacts: map[string]string{}}
		for _, r := range res {
			rec.Artifacts[r.ID] = renderDigest(r)
		}
		fmt.Fprintf(os.Stderr, "sweep seed %d: %s in %.2f s\n", seed, rec.StdoutMD5, time.Since(start).Seconds())
		sweeps = append(sweeps, rec)
	}
	return writeJSON(filepath.Join("perfbench", "expected", "sweep.json"), sweeps)
}

func recordLink() error {
	var links [][]linkRecord
	for k := 0; k < linkSeedSets; k++ {
		var set []linkRecord
		for _, p := range linkGrid {
			ltephy.SharedCache.Reset()
			r := core.Run(p.config(k))
			fmt.Fprintf(os.Stderr, "link set %d %-16s %+v\n", k, p.name, r)
			set = append(set, recordOf(r))
		}
		links = append(links, set)
	}
	return writeJSON(filepath.Join("perfbench", "expected", "link.json"), links)
}

func writeJSON(path string, v any) error {
	if _, err := os.Stat(filepath.Dir(path)); err != nil {
		return errors.New("run --record from the repository root")
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

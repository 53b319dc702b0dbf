package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"sort"
)

// referenceFile maps workload → seed → statistic → value. It holds the
// simulated statistics of the default seed and of one held-out seed, so a
// change that alters what the simulator computes fails the run.
type referenceFile map[string]map[string]map[string]float64

//go:embed reference.json
var referenceJSON []byte

// referencePath is where -record-reference writes, relative to the
// checkout root the benchmark runs from.
const referencePath = "perfbench/reference.json"

func loadReference() (referenceFile, error) { return parseReference(referenceJSON) }

// forSeed returns the statistics to expect from a workload at a seed: the
// recorded ones for a recorded seed; otherwise those on which every
// recorded seed agrees. The seed only sets the simulated node clocks, so
// most simulated work does not depend on it.
func (ref referenceFile) forSeed(workload string, seed int64) map[string]float64 {
	seeds := ref[workload]
	if r, ok := seeds[fmt.Sprint(seed)]; ok {
		return r
	}
	var agreed map[string]float64
	for _, r := range seeds {
		if agreed == nil {
			agreed = maps.Clone(r)
			continue
		}
		for k, v := range agreed {
			if w, ok := r[k]; !ok || w != v {
				delete(agreed, k)
			}
		}
	}
	return agreed
}

func parseReference(data []byte) (referenceFile, error) {
	var ref referenceFile
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// recordReference merges the statistics this run produced into the
// reference file on disk for its workload and seed.
func recordReference(b *bench) error {
	data, err := os.ReadFile(referencePath)
	if err != nil {
		return err
	}
	ref, err := parseReference(data)
	if err != nil {
		return err
	}
	if ref[b.cfg.workload] == nil {
		ref[b.cfg.workload] = make(map[string]map[string]float64)
	}
	seed := fmt.Sprint(b.cfg.seed)
	flat := ref[b.cfg.workload][seed]
	if flat == nil {
		flat = make(map[string]float64)
	}
	keys := make([]string, 0, len(b.first))
	for k := range b.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for k, v := range b.first[key] {
			flat[key+"."+k] = v
		}
	}
	ref[b.cfg.workload][seed] = flat
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(out, '\n'), 0o644)
}

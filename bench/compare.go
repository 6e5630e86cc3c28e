package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	if err := json.Unmarshal(b, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// Verdicts of one compared row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictDiffers    = "DIFFERS"
)

// worseBy is how much worse b is than a, as a share of a: positive is
// worse, whatever the metric's direction.
func worseBy(m e2eMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge gives the verdict on one end-to-end metric: unresolved when
// either set's own spread exceeds the bound, because then the sets
// cannot tell a regression of that size from noise.
func judge(m e2eMetric, a, b metricValue) string {
	switch {
	case spread(a.Samples) > m.Bound || spread(b.Samples) > m.Bound:
		return verdictUnresolved
	case worseBy(m, a.Value, b.Value) > m.Bound:
		return verdictWorse
	}
	return verdictOK
}

// compareSets prints one row per (workload, metric) and returns how
// many rows are worse and how many exact values differ.  Both sets
// must come from one seed: counts and digests are then properties of
// the program alone and must be identical.
func compareSets(a, b *resultSet) (worse, differ int) {
	if a.Header.Seed != b.Header.Seed {
		fmt.Printf("seeds differ (%d, %d): counts and digests are not compared\n", a.Header.Seed, b.Header.Seed)
	}
	sameSeed := a.Header.Seed == b.Header.Seed
	fmt.Printf("A: commit %s %s nproc=%d    B: commit %s %s nproc=%d\n",
		a.Header.Commit, a.Header.Go, a.Header.NProc, b.Header.Commit, b.Header.Go, b.Header.NProc)
	fmt.Printf("%-14s %-26s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "A", "B", "worse by", "bound", "spread A", "spread B", "verdict")
	for _, w := range workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			fmt.Printf("%-14s missing from one of the sets\n", w.Name)
			differ++
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			verdict := judge(m, va, vb)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Printf("%-14s %-26s %14.6g %14.6g %+8.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n", w.Name, m.Name,
				va.Value, vb.Value, 100*worseBy(m, va.Value, vb.Value), 100*m.Bound,
				100*spread(va.Samples), 100*spread(vb.Samples), verdict)
		}
		if ra.Failed != 0 || rb.Failed != 0 || len(ra.Errors)+len(rb.Errors) != 0 {
			fmt.Printf("%-14s %-26s %14d %14d %44s %s\n", w.Name, "failed", ra.Failed, rb.Failed, "", verdictWorse)
			worse++
		}
		if !sameSeed {
			continue
		}
		if ra.Digest != rb.Digest {
			fmt.Printf("%-14s %-26s %14.12s %14.12s %44s %s\n", w.Name, "digest", ra.Digest, rb.Digest, "", verdictDiffers)
			differ++
		}
		for _, m := range perLayer {
			va, oka := ra.PerLayer[m.Name]
			vb, okb := rb.PerLayer[m.Name]
			if !m.Exact || !oka || !okb || va.Value == vb.Value {
				continue
			}
			fmt.Printf("%-14s %-26s %14.6g %14.6g %44s %s\n", w.Name, m.Name, va.Value, vb.Value, "", verdictDiffers)
			differ++
		}
	}
	return worse, differ
}

// compareFiles is the -compare command; it returns the exit code.
func compareFiles(pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	worse, differ := compareSets(a, b)
	fmt.Printf("%d worse, %d exact values differ\n", worse, differ)
	if worse+differ > 0 {
		return 1
	}
	return 0
}

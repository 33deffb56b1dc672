package main

// Coordinator snapshot persistence: -snapshot-dir writes the coordinator's
// self-verifying snapshot blob to disk, -restore boots from the newest one
// that still verifies. Files are named coord-<step>.snap with a
// zero-padded step so lexical order is chronological order, and each write
// goes through a temp-file rename, so a crash mid-write leaves a stray
// .tmp, never a truncated .snap posing as the latest checkpoint.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/track"
)

// snapPath names the snapshot file for one step.
func snapPath(dir string, step int64) string {
	return filepath.Join(dir, fmt.Sprintf("coord-%012d.snap", step))
}

// writeSnapshotFile atomically persists one coordinator snapshot blob and
// returns the path it landed at.
func writeSnapshotFile(dir string, step int64, blob []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := snapPath(dir, step)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}

// snapshotSteps lists the steps with a snapshot file in dir, newest first.
func snapshotSteps(dir string) ([]int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "coord-*.snap"))
	if err != nil {
		return nil, err
	}
	steps := make([]int64, 0, len(paths))
	for _, p := range paths {
		var s int64
		if _, err := fmt.Sscanf(filepath.Base(p), "coord-%d.snap", &s); err == nil {
			steps = append(steps, s)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] > steps[j] })
	return steps, nil
}

// restoreLatest boots a coordinator from the newest snapshot in dir whose
// integrity check passes. Each candidate is restored into a fresh
// algorithm the factory builds for the candidate's step, so a blob that
// fails mid-decode can never leave the returned coordinator half-mutated.
// Damaged files are skipped (and reported) rather than restored: an older
// intact checkpoint beats a newer corrupt one.
func restoreLatest(dir string, fresh func(step int64) any) (algo any, step int64, skipped []string, err error) {
	steps, err := snapshotSteps(dir)
	if err != nil {
		return nil, 0, nil, err
	}
	if len(steps) == 0 {
		return nil, 0, nil, fmt.Errorf("no coordinator snapshots in %s", dir)
	}
	for _, s := range steps {
		path := snapPath(dir, s)
		blob, rerr := os.ReadFile(path)
		if rerr != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", path, rerr))
			continue
		}
		candidate := fresh(s)
		if rerr := track.RestoreCoord(candidate, blob); rerr != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", path, rerr))
			continue
		}
		return candidate, s, skipped, nil
	}
	return nil, 0, skipped, fmt.Errorf("no restorable coordinator snapshot in %s (%d damaged)", dir, len(skipped))
}

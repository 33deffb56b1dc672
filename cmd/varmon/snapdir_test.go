package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

// drivenCoord runs a small deterministic deployment for n steps and
// returns its coordinator algorithm, so tests get snapshots with
// non-trivial, distinguishable state.
func drivenCoord(t *testing.T, k int, n int64) dist.CoordAlgo {
	t.Helper()
	coordAlgo, siteAlgos := track.NewDeterministic(k, 0.1)
	sim := dist.NewSim(coordAlgo, siteAlgos)
	sim.Run(stream.NewAssign(stream.RandomWalk(n, 7), stream.NewRoundRobin(k)))
	return coordAlgo
}

func mustSnapshot(t *testing.T, algo dist.CoordAlgo) []byte {
	t.Helper()
	blob, err := track.SnapshotCoord(algo)
	if err != nil {
		t.Fatalf("SnapshotCoord: %v", err)
	}
	return blob
}

// TestSnapshotDirPicksNewestIntact pins the -restore contract: the newest
// snapshot wins when it verifies, and damaged files — a bit flip breaking
// the integrity hash, a truncation — are skipped in favor of an older
// intact checkpoint, never silently restored.
func TestSnapshotDirPicksNewestIntact(t *testing.T) {
	const k = 4
	dir := t.TempDir()

	older := mustSnapshot(t, drivenCoord(t, k, 500))
	newer := mustSnapshot(t, drivenCoord(t, k, 2_000))
	wantEst := drivenCoord(t, k, 2_000).Estimate()

	if _, err := writeSnapshotFile(dir, 500, older); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := writeSnapshotFile(dir, 2_000, newer); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Two newer-still damaged snapshots: one corrupted by a payload bit
	// flip (hash mismatch), one truncated mid-blob.
	flipped := append([]byte(nil), newer...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := writeSnapshotFile(dir, 3_000, flipped); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := writeSnapshotFile(dir, 4_000, newer[:len(newer)/2]); err != nil {
		t.Fatalf("write: %v", err)
	}

	fresh := func(int64) any {
		a, _ := track.NewDeterministic(k, 0.1)
		return a
	}
	algo, step, skipped, err := restoreLatest(dir, fresh)
	if err != nil {
		t.Fatalf("restoreLatest: %v", err)
	}
	if step != 2_000 {
		t.Fatalf("restored step %d, want 2000 (the newest intact snapshot)", step)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped %d files, want 2: %v", len(skipped), skipped)
	}
	if got := algo.(dist.CoordAlgo).Estimate(); got != wantEst {
		t.Fatalf("restored estimate %d, want %d", got, wantEst)
	}
}

// TestSnapshotDirAllDamaged: when every snapshot is damaged, -restore must
// refuse to boot rather than restore garbage.
func TestSnapshotDirAllDamaged(t *testing.T) {
	const k = 4
	dir := t.TempDir()
	blob := mustSnapshot(t, drivenCoord(t, k, 800))
	blob[len(blob)/3] ^= 0x01
	if _, err := writeSnapshotFile(dir, 100, blob); err != nil {
		t.Fatalf("write: %v", err)
	}
	fresh := func(int64) any {
		a, _ := track.NewDeterministic(k, 0.1)
		return a
	}
	_, _, skipped, err := restoreLatest(dir, fresh)
	if err == nil {
		t.Fatal("restoreLatest accepted a directory holding only a corrupt snapshot")
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "hash mismatch") {
		t.Fatalf("skipped = %v, want one hash-mismatch rejection", skipped)
	}
}

// TestSnapshotDirEmpty: an empty (or missing) directory is a boot error,
// not a silent cold start.
func TestSnapshotDirEmpty(t *testing.T) {
	fresh := func(int64) any {
		a, _ := track.NewDeterministic(2, 0.1)
		return a
	}
	if _, _, _, err := restoreLatest(t.TempDir(), fresh); err == nil {
		t.Fatal("restoreLatest accepted an empty directory")
	}
}

// TestWriteSnapshotFileAtomic: the published file appears under its final
// name only, with no .tmp residue on the success path.
func TestWriteSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path, err := writeSnapshotFile(dir, 42, []byte("blob"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "blob" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

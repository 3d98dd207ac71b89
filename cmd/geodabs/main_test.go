package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"geodabs"
)

// TestSnapshotRefreshWorkflow drives the snapshot workflow through run:
// generate a dataset, snapshot its index, refresh the snapshot in place
// with an upsert of the same batch, delete one trajectory from it in
// place, and query it. Every in-place write goes through a temp file,
// and none may be left behind.
func TestSnapshotRefreshWorkflow(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	dataset, queries := filepath.Join(data, "dataset.bin"), filepath.Join(data, "queries.bin")
	snap := filepath.Join(dir, "s")
	d := func() *geodabs.Dataset {
		if err := run([]string{"gen", "-out", data, "-routes", "5", "-per-direction", "2"}); err != nil {
			t.Fatal(err)
		}
		d, err := readDataset(dataset)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}()
	if d.Len() < 2 {
		t.Fatalf("gen wrote %d trajectories, want at least 2", d.Len())
	}
	victim := d.Trajectories[0].ID
	for _, args := range [][]string{
		{"stats", "-data", dataset, "-snapshot", snap},
		{"stats", "-data", dataset, "-in", snap, "-upsert", "-snapshot", snap},
		{"delete", "-snapshot", snap, strconv.FormatUint(uint64(victim), 10)},
		{"query", "-data", dataset, "-queries", queries, "-snapshot", snap},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}

	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	idx, err := geodabs.ReadIndex(geodabs.DefaultConfig(), f)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := idx.Len(), d.Len()-1; got != want {
		t.Fatalf("snapshot holds %d trajectories, want %d", got, want)
	}
	if left, err := filepath.Glob(filepath.Join(dir, "*.tmp-*")); err != nil || len(left) > 0 {
		t.Fatalf("temp files left behind: %v (%v)", left, err)
	}
}

// TestWriteSnapshotCleansUpOnFailure checks that a snapshot write that
// cannot finish removes its temp file and leaves the target as it was.
// A non-empty directory at the target makes the final rename fail after
// the temp file has been written and synced.
func TestWriteSnapshotCleansUpOnFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "s")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "x"), []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := geodabs.NewIndex(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeSnapshot(idx, target); err == nil {
		t.Fatal("writeSnapshot over a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(filepath.Join(target, "x")); err != nil || string(got) != "kept" {
		t.Fatalf("target after a failed write: %q, %v", got, err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(left) > 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestSearchFlagsCheckedBeforeWork drives query and remote-query through
// run with the ranking flags their one translation refuses: both fail
// alike, before reading a file or dialing a server. -limit 0 and a
// negative -limit mean "no cap" and get as far as the missing files.
func TestSearchFlagsCheckedBeforeWork(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.bin")
	for cmd, files := range map[string][]string{
		"query":        {"-data", missing, "-queries", missing},
		"remote-query": {"-addr", "127.0.0.1:1", "-queries", missing},
	} {
		for _, tc := range []struct {
			flags []string
			want  string
		}{
			{[]string{"-rerank", "lcss"}, `unknown rerank metric "lcss"`},
			{[]string{"-limit", "0"}, "no such file"},
			{[]string{"-limit", "-1"}, "no such file"},
		} {
			args := append(append([]string{cmd}, files...), tc.flags...)
			if err := run(args); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v: error %v, want it to contain %q", args, err, tc.want)
			}
		}
	}
}

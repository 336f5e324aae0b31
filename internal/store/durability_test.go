package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDirPutLeavesNoTempFiles: the atomic-write protocol must never
// leave a .tmp behind — not on success, not on a stale rejection, not
// on a failed write. A lingering tmp under a predictable name would be
// re-truncated by the next Put of the same version, racing readers.
func TestDirPutLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("s1", 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("s1", 1, []byte("dup")); err == nil {
		t.Fatal("stale Put accepted")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestWriteFileSyncContents: writeFileSync lands the exact bytes and
// syncs before close, so the rename in Put publishes durable content —
// never a zero-length file under a valid name (docs/robustness.md,
// acknowledged-checkpoint-loss invariant).
func TestWriteFileSyncContents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	want := []byte("checkpoint bytes")
	if err := writeFileSync(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
	// Overwrite must truncate, not append.
	if err := writeFileSync(path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "x" {
		t.Fatalf("after overwrite read back %q, want %q", got, "x")
	}
}

// TestWriteFileSyncFailureCleanup: a write into a nonexistent directory
// fails with an error (Put removes the tmp on that path).
func TestWriteFileSyncFailureCleanup(t *testing.T) {
	if err := writeFileSync(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x")); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
}

// TestSyncDir: the parent-directory fsync used after rename works on a
// real directory and fails typed on a missing one.
func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Fatalf("syncDir(%s): %v", dir, err)
	}
	if err := syncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("syncDir on missing directory succeeded")
	}
}

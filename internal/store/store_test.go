package store

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// backends runs a subtest against every Store implementation so the
// contract stays identical across them.
func backends(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Run("dir", func(t *testing.T) {
		d, err := NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, d)
	})
	t.Run("mem", func(t *testing.T) { fn(t, NewMem()) })
}

func TestStoreRoundTrip(t *testing.T) {
	backends(t, func(t *testing.T, s Store) {
		if err := s.Put("s00000001", 1, []byte("v1 blob")); err != nil {
			t.Fatal(err)
		}
		data, ver, err := s.Get("s00000001")
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "v1 blob" || ver != 1 {
			t.Fatalf("got %q v%d, want %q v1", data, ver, "v1 blob")
		}
		if v, err := s.Version("s00000001"); err != nil || v != 1 {
			t.Fatalf("Version = %d, %v; want 1, nil", v, err)
		}
	})
}

func TestStoreLastWriterWins(t *testing.T) {
	backends(t, func(t *testing.T, s Store) {
		if err := s.Put("s00000001", 2, []byte("newer")); err != nil {
			t.Fatal(err)
		}
		// A version that is not strictly newer must be rejected — this
		// is the convergence rule for two nodes that both briefly held
		// a session after a ring change.
		for _, stale := range []uint64{1, 2} {
			err := s.Put("s00000001", stale, []byte("stale"))
			if !errors.Is(err, ErrStale) {
				t.Fatalf("Put v%d after v2: err = %v, want ErrStale", stale, err)
			}
		}
		data, ver, err := s.Get("s00000001")
		if err != nil || string(data) != "newer" || ver != 2 {
			t.Fatalf("after stale puts: got %q v%d err %v, want %q v2", data, ver, err, "newer")
		}
		// A strictly newer version replaces.
		if err := s.Put("s00000001", 3, []byte("newest")); err != nil {
			t.Fatal(err)
		}
		if data, ver, _ := s.Get("s00000001"); string(data) != "newest" || ver != 3 {
			t.Fatalf("got %q v%d, want newest v3", data, ver)
		}
	})
}

func TestStoreColdStart(t *testing.T) {
	backends(t, func(t *testing.T, s Store) {
		// An empty store: every read path reports absence, none errors.
		if _, _, err := s.Get("s00000001"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
		}
		if _, err := s.Version("s00000001"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Version on empty store: %v, want ErrNotFound", err)
		}
		if err := s.Delete("s00000001"); err != nil {
			t.Fatalf("Delete of absent id: %v", err)
		}
		entries, err := s.List()
		if err != nil || len(entries) != 0 {
			t.Fatalf("List on empty store: %v entries, err %v", entries, err)
		}
	})
}

func TestStoreDeleteRemovesAllVersions(t *testing.T) {
	backends(t, func(t *testing.T, s Store) {
		s.Put("s00000001", 1, []byte("a"))
		s.Put("s00000001", 5, []byte("b"))
		s.Put("s00000002", 1, []byte("c"))
		if err := s.Delete("s00000001"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get("s00000001"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get after delete: %v, want ErrNotFound", err)
		}
		entries, err := s.List()
		if err != nil || len(entries) != 1 || entries[0].ID != "s00000002" {
			t.Fatalf("List after delete = %v, %v; want [s00000002]", entries, err)
		}
	})
}

func TestStoreList(t *testing.T) {
	backends(t, func(t *testing.T, s Store) {
		s.Put("s00000003", 2, []byte("x"))
		s.Put("s00000001", 7, []byte("y"))
		entries, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
		want := []Entry{{ID: "s00000001", Version: 7}, {ID: "s00000003", Version: 2}}
		if len(entries) != 2 || entries[0] != want[0] || entries[1] != want[1] {
			t.Fatalf("List = %v, want %v", entries, want)
		}
	})
}

// TestDirIgnoresForeignFiles proves non-blob files in the directory are
// invisible to the store (and never deleted by it) — the unversioned
// `<id>.ckpt` spill file of servers before the store interface among them.
func TestDirIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	foreign := []string{"README.txt", "partial.ckpt.tmp", "s00000009.ckpt"}
	for _, name := range foreign {
		os.WriteFile(filepath.Join(dir, name), []byte("not a blob"), 0o644)
	}
	d, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := d.List()
	if err != nil || len(entries) != 0 {
		t.Fatalf("List = %v, %v; want empty", entries, err)
	}
	if _, _, err := d.Get("s00000009"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of an unversioned file's id: %v, want ErrNotFound", err)
	}
	if n := d.Sweep(0); n != 0 {
		t.Fatalf("Sweep removed %d foreign files", n)
	}
	if err := d.Put("s00000009", 1, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	d.Delete("s00000009")
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s did not survive Put and Delete: %v", name, err)
		}
	}
}

func TestDirRejectsTraversalIDs(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../escape", "a/b", `a\b`, "dotted.id"} {
		if err := d.Put(id, 1, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a malformed id", id)
		}
		if _, _, err := d.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%q) = %v, want ErrNotFound", id, err)
		}
	}
}

func TestDirSweepExpiresOldBlobs(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("s00000001", 1, []byte("old"))
	d.Put("s00000002", 1, []byte("fresh"))
	// Age the first blob's mtime past the TTL.
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "s00000001.v1.ckpt"), old, old); err != nil {
		t.Fatal(err)
	}
	if n := d.Sweep(time.Hour); n != 1 {
		t.Fatalf("Sweep removed %d, want 1", n)
	}
	if _, _, err := d.Get("s00000001"); !errors.Is(err, ErrNotFound) {
		t.Errorf("aged blob survived the sweep: %v", err)
	}
	if _, _, err := d.Get("s00000002"); err != nil {
		t.Errorf("fresh blob was swept: %v", err)
	}
}

func TestMemFailPuts(t *testing.T) {
	m := NewMem()
	boom := errors.New("disk full")
	m.FailPuts = boom
	if err := m.Put("s00000001", 1, []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("Put = %v, want injected failure", err)
	}
	if m.Len() != 0 {
		t.Fatal("failed Put left state behind")
	}
}

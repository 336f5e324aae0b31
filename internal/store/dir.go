package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Dir is the filesystem Store backend: one file per session,
// `<id>.v<version>.ckpt`, written atomically (temp file + rename) so a
// crash mid-write never leaves a truncated blob under a valid name. A
// directory on a shared volume is the docker-compose deployment's
// multi-node store; a local directory is the single-node spill
// directory the server always had. Files under any other name, the
// unversioned `<id>.ckpt` of servers before the store interface
// included, are not blobs: never listed, read or removed.
type Dir struct {
	path string
}

// ext is the on-disk suffix of stored checkpoints.
const ext = ".ckpt"

// NewDir opens (creating if needed) a directory-backed store.
func NewDir(path string) (*Dir, error) {
	if path == "" {
		return nil, fmt.Errorf("store: empty directory path")
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Dir{path: path}, nil
}

// validID rejects IDs that could escape the directory or collide with
// the version-encoding scheme.
func validID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	return !strings.ContainsAny(id, "/\\.")
}

// file returns the versioned file name for id.
func (d *Dir) file(id string, version uint64) string {
	return filepath.Join(d.path, fmt.Sprintf("%s.v%d%s", id, version, ext))
}

// parseName splits a directory entry into (id, version); ok is false
// for files that are not store blobs.
func parseName(name string) (id string, version uint64, ok bool) {
	base, found := strings.CutSuffix(name, ext)
	if !found {
		return "", 0, false
	}
	i := strings.LastIndex(base, ".v")
	if i <= 0 || !validID(base[:i]) {
		return "", 0, false
	}
	version, err := strconv.ParseUint(base[i+2:], 10, 64)
	return base[:i], version, err == nil
}

// scan returns the newest stored version of id and its file name, or
// ErrNotFound.
func (d *Dir) scan(id string) (version uint64, name string, err error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return 0, "", fmt.Errorf("store: %w", err)
	}
	found := false
	for _, e := range entries {
		eid, v, ok := parseName(e.Name())
		if !ok || eid != id {
			continue
		}
		if !found || v >= version {
			version, name, found = v, e.Name(), true
		}
	}
	if !found {
		return 0, "", ErrNotFound
	}
	return version, name, nil
}

// Put implements Store with an atomic write and last-writer-wins
// version enforcement. Older versions of the ID are removed after the
// new one lands.
func (d *Dir) Put(id string, version uint64, data []byte) error {
	if !validID(id) {
		return fmt.Errorf("store: invalid session id %q", id)
	}
	cur, _, err := d.scan(id)
	if err == nil && cur >= version {
		return fmt.Errorf("store: %s version %d vs stored %d: %w", id, version, cur, ErrStale)
	}
	path := d.file(id, version)
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	// Crash durability, not just crash atomicity: fsync the parent
	// directory so the rename itself survives a power cut. Without it a
	// kill between rename and the metadata flush can roll the directory
	// back to a state where the acknowledged blob never existed — exactly
	// the acknowledged-checkpoint-loss invariant the chaos harness checks
	// (docs/robustness.md).
	if err := syncDir(d.path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Best-effort cleanup of superseded versions; a racing writer's
	// newer file survives because only strictly-older names match.
	entries, err := os.ReadDir(d.path)
	if err == nil {
		for _, e := range entries {
			eid, v, ok := parseName(e.Name())
			if ok && eid == id && v < version {
				os.Remove(filepath.Join(d.path, e.Name()))
			}
		}
	}
	return nil
}

// writeFileSync is os.WriteFile plus an fsync before close, so the
// blob's *contents* are on stable storage before the rename publishes
// its name. Rename-over-unsynced-data is the classic way to turn a
// crash into a zero-length file under a valid name.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(path string) error {
	dir, err := os.Open(path)
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get implements Store.
func (d *Dir) Get(id string) ([]byte, uint64, error) {
	if !validID(id) {
		return nil, 0, ErrNotFound
	}
	version, name, err := d.scan(id)
	if err != nil {
		return nil, 0, err
	}
	data, err := os.ReadFile(filepath.Join(d.path, name))
	if os.IsNotExist(err) {
		// Lost a race with a concurrent Delete or version cleanup.
		return nil, 0, ErrNotFound
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	return data, version, nil
}

// Version implements Store.
func (d *Dir) Version(id string) (uint64, error) {
	if !validID(id) {
		return 0, ErrNotFound
	}
	v, _, err := d.scan(id)
	return v, err
}

// Delete implements Store: every version of id goes.
func (d *Dir) Delete(id string) error {
	if !validID(id) {
		return nil
	}
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		eid, _, ok := parseName(e.Name())
		if ok && eid == id {
			os.Remove(filepath.Join(d.path, e.Name()))
		}
	}
	return nil
}

// List implements Store. A missing or empty directory lists zero
// entries — the cold-start case costs nothing.
func (d *Dir) List() ([]Entry, error) {
	entries, err := os.ReadDir(d.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	newest := make(map[string]uint64)
	for _, e := range entries {
		id, v, ok := parseName(e.Name())
		if !ok {
			continue
		}
		if cur, seen := newest[id]; !seen || v > cur {
			newest[id] = v
		}
	}
	out := make([]Entry, 0, len(newest))
	for id, v := range newest {
		out = append(out, Entry{ID: id, Version: v})
	}
	return out, nil
}

// Sweep implements Sweeper: blobs whose file modification time is older
// than olderThan are deleted, so abandoned sessions cannot grow the
// directory without bound.
func (d *Dir) Sweep(olderThan time.Duration) int {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return 0
	}
	removed := 0
	now := time.Now()
	for _, e := range entries {
		if _, _, ok := parseName(e.Name()); !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if now.Sub(info.ModTime()) > olderThan {
			if os.Remove(filepath.Join(d.path, e.Name())) == nil {
				removed++
			}
		}
	}
	return removed
}

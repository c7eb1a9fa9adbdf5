package fillcache

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// tmpGrace is how old an orphaned .tmp-* file must be before GC removes
// it. Fresh temps belong to in-flight Puts; stale ones are debris from a
// crashed writer (the atomic-rename protocol never leaves them behind on
// a clean path).
const tmpGrace = time.Hour

// GCResult summarizes one GC pass.
type GCResult struct {
	// Scanned is the number of entry files found before trimming.
	Scanned int
	// Removed counts deleted entry files (stale temps are extra).
	Removed int
	// RemovedTemps counts deleted orphaned temp files.
	RemovedTemps int
	// BytesBefore and BytesAfter are the entry-file byte totals around
	// the trim.
	BytesBefore, BytesAfter int64
}

func (r GCResult) String() string {
	return fmt.Sprintf("scanned %d entries (%d bytes), removed %d entries and %d stale temps, %d bytes kept",
		r.Scanned, r.BytesBefore, r.Removed, r.RemovedTemps, r.BytesAfter)
}

// gcFile is one candidate for removal.
type gcFile struct {
	path string
	size int64
	mod  time.Time
}

// GC bounds the cache directory: entries older than maxAge (0 = no age
// bound) are removed, then least-recently-modified entries are removed
// until at most maxBytes remain (negative = no size bound; 0 = remove
// everything). Orphaned temp files older than tmpGrace are always
// cleaned. now is supplied by the caller so the cache itself stays
// wall-clock-free (its keys and entries must never depend on time); the
// CLI passes time.Now().
//
// GC deletes whole files only, and Put publishes entries by atomic
// rename, so readers racing a GC observe either a clean miss or a
// complete entry — never a torn one. Entries that vanish mid-pass
// (another process's GC, or a concurrent trim) are skipped, not errors.
func (c *Cache) GC(maxBytes int64, maxAge time.Duration, now time.Time) (GCResult, error) {
	c.gcMu.Lock()
	defer c.gcMu.Unlock()
	return c.gcLocked(maxBytes, maxAge, now)
}

// gcLocked is the GC pass body; the caller holds gcMu.
//
//filllint:holds gcMu
func (c *Cache) gcLocked(maxBytes int64, maxAge time.Duration, now time.Time) (GCResult, error) {
	var res GCResult
	var entries []gcFile
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // removed underneath us: fine
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		name := d.Name()
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			if now.Sub(info.ModTime()) > tmpGrace {
				if rmErr := os.Remove(path); rmErr == nil || os.IsNotExist(rmErr) {
					res.RemovedTemps++
				}
			}
		case strings.HasSuffix(name, ".dfc"):
			entries = append(entries, gcFile{path: path, size: info.Size(), mod: info.ModTime()})
		}
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("fillcache: gc: %w", err)
	}
	res.Scanned = len(entries)
	for _, e := range entries {
		res.BytesBefore += e.size
	}
	// Oldest first; path breaks mtime ties so passes are reproducible.
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mod.Equal(entries[j].mod) {
			return entries[i].mod.Before(entries[j].mod)
		}
		return entries[i].path < entries[j].path
	})
	res.BytesAfter = res.BytesBefore
	for _, e := range entries {
		tooOld := maxAge > 0 && now.Sub(e.mod) > maxAge
		tooBig := maxBytes >= 0 && res.BytesAfter > maxBytes
		if !tooOld && !tooBig {
			// Oldest-first order: later entries are younger still, and the
			// size bound is already met, so the rest survive.
			break
		}
		if rmErr := os.Remove(e.path); rmErr != nil && !os.IsNotExist(rmErr) {
			return res, fmt.Errorf("fillcache: gc: %w", rmErr)
		}
		res.Removed++
		res.BytesAfter -= e.size
	}
	return res, nil
}

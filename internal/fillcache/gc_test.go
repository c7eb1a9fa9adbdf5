package fillcache

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// gcCache populates a cache with n entries whose mtimes ascend one
// minute apart ending at now (key i is the i-th oldest), and returns the
// cache, the keys, and the size of one entry file.
func gcCache(t *testing.T, n int, now time.Time) (*Cache, []Key, int64) {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, n)
	var size int64
	for i := range keys {
		keys[i][0] = byte(i)
		e := &Entry{Td1: []float64{0.5}, Td2: []float64{0.6}, SelArea: []int64{int64(i)}}
		if err := c.Put(keys[i], e); err != nil {
			t.Fatal(err)
		}
		_, file := c.path(keys[i])
		mod := now.Add(-time.Duration(n-i) * time.Minute)
		if err := os.Chtimes(file, mod, mod); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(file)
		if err != nil {
			t.Fatal(err)
		}
		size = info.Size()
	}
	return c, keys, size
}

func TestGCSizeBound(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	c, keys, size := gcCache(t, 10, now)
	res, err := c.GC(3*size, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 10 || res.Removed != 7 {
		t.Fatalf("scanned %d removed %d, want 10/7: %v", res.Scanned, res.Removed, res)
	}
	if res.BytesAfter != 3*size {
		t.Fatalf("kept %d bytes, want %d", res.BytesAfter, 3*size)
	}
	// Oldest-first: keys 0–6 are gone, 7–9 survive intact.
	for i, k := range keys {
		e, err := c.Get(k)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if kept := i >= 7; (e != nil) != kept {
			t.Fatalf("key %d: entry present=%v, want %v", i, e != nil, kept)
		}
		if e != nil && e.SelArea[0] != int64(i) {
			t.Fatalf("key %d: wrong payload %v", i, e.SelArea)
		}
	}
}

func TestGCAgeBound(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	c, keys, _ := gcCache(t, 10, now) // ages 10m (key 0) down to 1m (key 9)
	res, err := c.GC(-1, 5*time.Minute+time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 5 {
		t.Fatalf("removed %d entries, want the 5 older than ~5m: %v", res.Removed, res)
	}
	for i, k := range keys {
		e, err := c.Get(k)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if kept := i >= 5; (e != nil) != kept {
			t.Fatalf("key %d: entry present=%v, want %v", i, e != nil, kept)
		}
	}
}

func TestGCUnbounded(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	c, _, _ := gcCache(t, 4, now)
	res, err := c.GC(-1, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 0 || res.BytesAfter != res.BytesBefore {
		t.Fatalf("unbounded GC removed entries: %v", res)
	}
}

// TestGCStaleTemps checks temp-file hygiene: debris from a crashed
// writer is cleaned once old, while a fresh temp (an in-flight Put) is
// left alone and never counted against the size budget.
func TestGCStaleTemps(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	c, keys, _ := gcCache(t, 2, now)
	sub, _ := c.path(keys[0])
	stale := filepath.Join(sub, ".tmp-stale")
	fresh := filepath.Join(sub, ".tmp-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := now.Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	res, err := c.GC(-1, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedTemps != 1 {
		t.Fatalf("removed %d temps, want 1: %v", res.RemovedTemps, res)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp survived GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp removed by GC")
	}
}

// TestGCNeverTears is the torn-trim safety property: a GC pass removes
// whole entries only, so afterwards every key either misses cleanly or
// decodes to a complete entry — ErrCorrupt must never appear, whatever
// the trim boundary.
func TestGCNeverTears(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	c, keys, size := gcCache(t, 16, now)
	for budget := int64(16) * size; budget >= 0; budget -= size / 2 {
		if _, err := c.GC(budget, 0, now); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if _, err := c.Get(k); err != nil {
				if errors.Is(err, ErrCorrupt) {
					t.Fatalf("budget %d, key %d: GC exposed a torn entry: %v", budget, i, err)
				}
				t.Fatal(err)
			}
		}
	}
	// The loop's last pass hit budget 0, so nothing survives.
	if res, err := c.GC(0, 0, now); err != nil || res.Scanned != 0 {
		t.Fatalf("cache not empty after zero-budget GC: %v %v", res, err)
	}
}

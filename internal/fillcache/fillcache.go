// Package fillcache is the persistent, content-addressed window-result
// cache behind incremental (ECO) re-fill. An entry stores everything the
// engine needs to replay one window of a previous run — the plan targets
// it was solved under, the selected-candidate summary, and the sized
// fills in window-relative coordinates — keyed by a canonical SHA-256 of
// the window's content plus the engine fingerprint (rules, sizing
// options, solver identity, engine version). Two windows with identical
// content anywhere on the die, in any design, share one entry.
//
// The store is a plain directory tree: one file per entry, fanned out by
// the first key byte, written atomically (temp file + rename) so
// concurrent writers — the workers of one run, or several processes
// sharing a cache directory — can never expose a torn entry. Every entry
// carries an integrity trailer; a corrupt, truncated or torn file is
// reported as ErrCorrupt and treated by callers as a miss, never as
// data. The package is stdlib-only and keeps no state beyond counters:
// crash-safety comes from the atomic rename, not from a journal.
//
// Nothing in an entry or a key depends on wall-clock time, map iteration
// order, or scheduling; the cache is enforced deterministic by the
// nodeterm analyzer (DESIGN.md §10) and by the cache-equivalence golden
// tests, which assert cold, warm and partially-invalidated runs emit
// byte-identical GDS.
package fillcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

// ErrCorrupt marks an entry that failed decoding or integrity
// verification. Callers must treat it as a miss and recompute.
var ErrCorrupt = errors.New("fillcache: corrupt entry")

// entryMagic identifies the on-disk entry format; bump the digit when
// the encoding changes incompatibly (old files then decode as corrupt
// and are recomputed, which is the desired migration).
const entryMagic = "DFC1"

// maxLayers and maxFills bound decoded slice lengths so a corrupt header
// can cost at most a bounded allocation before the integrity check would
// have rejected it anyway.
const (
	maxLayers = 1 << 16
	maxFills  = 1 << 26
)

// Entry is one cached window result.
//
// Td1 and Td2 are the global per-layer target densities of the two
// planning rounds the window was solved under. They are deliberately not
// part of the key: plans are global (every window influences them), so
// keying on them would invalidate the whole cache whenever any window
// changes. Instead the engine validates them at use time — Td1 must
// match bit-for-bit to reuse the selection summary, Td1+Td2 to replay
// the fills — which is exactly the condition under which the cold
// pipeline would have produced the identical result.
type Entry struct {
	// Td1, Td2 are the plan-round target densities, one per layer.
	Td1, Td2 []float64
	// SelArea is the per-layer total area of the selected candidates —
	// what the second planning round needs from this window, so a hit
	// skips candidate generation entirely.
	SelArea []int64
	// NumSel is the number of selected candidates (Result.Candidates
	// bookkeeping parity between warm and cold runs).
	NumSel int
	// Fills are the sized fills in window-relative coordinates (origin at
	// the window's lower-left corner), so identical windows at different
	// die positions share an entry. May be empty: a window where
	// everything shrank away is still a valid, cacheable result.
	Fills []layout.Fill
}

// Stats is a snapshot of a Cache's lifetime counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Corrupt   int64 `json:"corrupt,omitempty"`
	Puts      int64 `json:"puts"`
	PutErrors int64 `json:"put_errors,omitempty"`
}

// Cache is a handle on one cache directory. Get and Put are safe for
// concurrent use by any number of goroutines and processes.
type Cache struct {
	dir string

	hits, misses, corrupt atomic.Int64
	puts, putErrors       atomic.Int64

	// gcMu serializes in-process GC passes: two concurrent passes over
	// the same directory would race the walk and double-count removals.
	// Cross-process GC safety still comes from whole-file semantics
	// (atomic rename, whole-file deletes), not from this lock.
	gcMu sync.Mutex
}

// Open returns a cache rooted at dir, creating the directory if needed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("fillcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fillcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root directory.
func (c *Cache) Dir() string { return c.dir }

// Stats snapshots the lifetime counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Corrupt:   c.corrupt.Load(),
		Puts:      c.puts.Load(),
		PutErrors: c.putErrors.Load(),
	}
}

// path fans entries out under a one-byte subdirectory so huge caches do
// not degenerate into one enormous directory.
func (c *Cache) path(k Key) (subdir, file string) {
	hexKey := hex.EncodeToString(k[:])
	subdir = filepath.Join(c.dir, hexKey[:2])
	return subdir, filepath.Join(subdir, hexKey+".dfc")
}

// Get looks up a key. A (nil, nil) return is a clean miss; a non-nil
// error (always wrapping ErrCorrupt for decode/integrity failures) means
// the entry existed but was unusable — the caller recomputes either way.
func (c *Cache) Get(k Key) (*Entry, error) {
	_, file := c.path(k)
	data, err := os.ReadFile(file)
	if err != nil {
		if os.IsNotExist(err) {
			c.misses.Add(1)
			return nil, nil
		}
		c.corrupt.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	e, err := decodeEntry(k, data)
	if err != nil {
		c.corrupt.Add(1)
		return nil, err
	}
	c.hits.Add(1)
	return e, nil
}

// Put stores an entry under key, atomically: concurrent readers observe
// either the previous version or the complete new one, never a torn
// write. A Put error is counted but leaves the cache consistent.
func (c *Cache) Put(k Key, e *Entry) error {
	err := c.put(k, e)
	if err != nil {
		c.putErrors.Add(1)
		return err
	}
	c.puts.Add(1)
	return nil
}

func (c *Cache) put(k Key, e *Entry) error {
	subdir, file := c.path(k)
	if err := os.MkdirAll(subdir, 0o755); err != nil {
		return fmt.Errorf("fillcache: %w", err)
	}
	data, err := encodeEntry(k, e)
	if err != nil {
		return err
	}
	// The temp file lives in the destination subdirectory so the rename
	// can never cross filesystems.
	tmp, err := os.CreateTemp(subdir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("fillcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("fillcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fillcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), file); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fillcache: %w", err)
	}
	return nil
}

// Entry encoding (all integers little-endian):
//
//	magic "DFC1"            4
//	key echo               32
//	nl  (layers)            4
//	numSel                  4
//	nFills                  4
//	td1      nl × float64 bits
//	td2      nl × float64 bits
//	selArea  nl × int64
//	fills    nFills × (layer uint32, xl, yl, xh, yh int64)
//	SHA-256 of everything above   32
const (
	entryHeaderLen  = 4 + 32 + 4 + 4 + 4
	entryTrailerLen = sha256.Size
	fillRecLen      = 4 + 4*8
)

func encodeEntry(k Key, e *Entry) ([]byte, error) {
	nl := len(e.Td1)
	if len(e.Td2) != nl || len(e.SelArea) != nl {
		return nil, fmt.Errorf("fillcache: inconsistent entry layer counts (%d/%d/%d)",
			len(e.Td1), len(e.Td2), len(e.SelArea))
	}
	size := entryHeaderLen + 3*8*nl + fillRecLen*len(e.Fills) + entryTrailerLen
	buf := make([]byte, 0, size)
	buf = append(buf, entryMagic...)
	buf = append(buf, k[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nl))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.NumSel))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Fills)))
	for _, v := range e.Td1 {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range e.Td2 {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range e.SelArea {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, f := range e.Fills {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Layer))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Rect.XL))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Rect.YL))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Rect.XH))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Rect.YH))
	}
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	return buf, nil
}

func decodeEntry(k Key, data []byte) (*Entry, error) {
	if len(data) < entryHeaderLen+entryTrailerLen {
		return nil, fmt.Errorf("%w: short entry (%d bytes)", ErrCorrupt, len(data))
	}
	body, trailer := data[:len(data)-entryTrailerLen], data[len(data)-entryTrailerLen:]
	// Integrity first: nothing past this point trusts untrusted bytes.
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("%w: integrity trailer mismatch", ErrCorrupt)
	}
	if string(body[:4]) != entryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, body[:4])
	}
	if string(body[4:36]) != string(k[:]) {
		return nil, fmt.Errorf("%w: key echo mismatch", ErrCorrupt)
	}
	nl := int(binary.LittleEndian.Uint32(body[36:40]))
	numSel := int(binary.LittleEndian.Uint32(body[40:44]))
	nFills := int(binary.LittleEndian.Uint32(body[44:48]))
	if nl > maxLayers || nFills > maxFills {
		return nil, fmt.Errorf("%w: implausible counts (layers=%d fills=%d)", ErrCorrupt, nl, nFills)
	}
	if want := entryHeaderLen + 3*8*nl + fillRecLen*nFills; len(body) != want {
		return nil, fmt.Errorf("%w: length %d, want %d", ErrCorrupt, len(body), want)
	}
	e := &Entry{
		Td1:     make([]float64, nl),
		Td2:     make([]float64, nl),
		SelArea: make([]int64, nl),
		NumSel:  numSel,
	}
	p := body[entryHeaderLen:]
	for i := 0; i < nl; i++ {
		e.Td1[i] = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	for i := 0; i < nl; i++ {
		e.Td2[i] = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	for i := 0; i < nl; i++ {
		e.SelArea[i] = int64(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	if nFills > 0 {
		e.Fills = make([]layout.Fill, nFills)
		for i := 0; i < nFills; i++ {
			e.Fills[i] = layout.Fill{
				Layer: int(int32(binary.LittleEndian.Uint32(p))),
				Rect: geom.Rect{
					XL: int64(binary.LittleEndian.Uint64(p[4:])),
					YL: int64(binary.LittleEndian.Uint64(p[12:])),
					XH: int64(binary.LittleEndian.Uint64(p[20:])),
					YH: int64(binary.LittleEndian.Uint64(p[28:])),
				},
			}
			p = p[fillRecLen:]
		}
	}
	return e, nil
}

package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Backend is the storage a Log writes through: an ordered set of append-only
// segment files (named by the LSN of their first record) plus a set of
// atomically-replaced checkpoint blobs (named by the last LSN they cover).
// FS is the filesystem implementation; Mem backs tests and crash simulation
// (its Clone is a byte-exact "power was cut here" copy). Alternative stores —
// object storage, a replicated log — implement the same eight methods and
// slot in without touching the Log or the store above it.
type Backend interface {
	// ListSegments returns the start LSN of every existing segment, sorted
	// ascending.
	ListSegments() ([]uint64, error)
	// OpenSegment opens the segment starting at the given LSN for reading.
	OpenSegment(start uint64) (io.ReadCloser, error)
	// CreateSegment creates (truncating if present — a re-created segment is
	// a recovery retry) the segment starting at the given LSN for appending.
	CreateSegment(start uint64) (SegmentWriter, error)
	// RemoveSegment deletes the segment; removing an absent one is an error.
	RemoveSegment(start uint64) error
	// SegmentSize reports the byte size of an existing segment.
	SegmentSize(start uint64) (int64, error)

	// ListCheckpoints returns the LSN of every checkpoint, sorted ascending.
	ListCheckpoints() ([]uint64, error)
	// WriteCheckpoint streams a new checkpoint blob and publishes it
	// atomically: a crash mid-write must never leave a half-visible
	// checkpoint under the final name.
	WriteCheckpoint(lsn uint64, write func(io.Writer) error) error
	// OpenCheckpoint opens a checkpoint blob for reading.
	OpenCheckpoint(lsn uint64) (io.ReadCloser, error)
	// RemoveCheckpoint deletes a checkpoint blob.
	RemoveCheckpoint(lsn uint64) error
}

// SegmentWriter is an open segment being appended to.
type SegmentWriter interface {
	io.Writer
	// Sync forces written records to stable storage (fsync).
	Sync() error
	io.Closer
}

// ---------------------------------------------------------------------------
// Filesystem backend

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".snap"
	ckptTemp   = ckptPrefix + "tmp-" // a checkpoint being written
)

// FS is the filesystem Backend: segments as dir/wal-<lsn>.log, checkpoints as
// dir/ckpt-<lsn>.snap written via a temp file + rename (with directory fsyncs
// so the rename itself is durable).
type FS struct {
	dir string
}

// NewFS creates the data directory if needed, removes the temp files of
// checkpoints a crash interrupted, and returns the backend.
func NewFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), ckptTemp) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, err
			}
		}
	}
	return &FS{dir: dir}, nil
}

// Dir returns the backing directory.
func (fs *FS) Dir() string { return fs.dir }

func (fs *FS) segPath(start uint64) string {
	return filepath.Join(fs.dir, fmt.Sprintf("%s%020d%s", segPrefix, start, segSuffix))
}

func (fs *FS) ckptPath(lsn uint64) string {
	return filepath.Join(fs.dir, fmt.Sprintf("%s%020d%s", ckptPrefix, lsn, ckptSuffix))
}

// list scans the directory for names of the form prefix<number>suffix and
// returns the numbers, sorted.
func (fs *FS) list(prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
		if err != nil {
			continue // foreign file, not ours to touch
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (fs *FS) ListSegments() ([]uint64, error) { return fs.list(segPrefix, segSuffix) }

func (fs *FS) OpenSegment(start uint64) (io.ReadCloser, error) {
	return os.Open(fs.segPath(start))
}

// fsFile adapts *os.File to SegmentWriter (it already is one — the wrapper
// only exists to keep the interface satisfied explicitly).
type fsFile struct{ *os.File }

func (fs *FS) CreateSegment(start uint64) (SegmentWriter, error) {
	f, err := os.OpenFile(fs.segPath(start), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	// Make the segment's directory entry durable up front: a crash right
	// after the first synced append must find the file, not an orphan inode.
	if err := fs.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return fsFile{f}, nil
}

func (fs *FS) RemoveSegment(start uint64) error { return os.Remove(fs.segPath(start)) }

func (fs *FS) SegmentSize(start uint64) (int64, error) {
	st, err := os.Stat(fs.segPath(start))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (fs *FS) ListCheckpoints() ([]uint64, error) { return fs.list(ckptPrefix, ckptSuffix) }

func (fs *FS) WriteCheckpoint(lsn uint64, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(fs.dir, ckptTemp+"*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), fs.ckptPath(lsn)); err != nil {
		return err
	}
	return fs.syncDir()
}

func (fs *FS) OpenCheckpoint(lsn uint64) (io.ReadCloser, error) {
	return os.Open(fs.ckptPath(lsn))
}

func (fs *FS) RemoveCheckpoint(lsn uint64) error { return os.Remove(fs.ckptPath(lsn)) }

// syncDir fsyncs the data directory, making renames and creations durable.
func (fs *FS) syncDir() error {
	d, err := os.Open(fs.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ---------------------------------------------------------------------------
// In-memory backend

// Mem is an in-memory Backend for tests and crash simulation. Clone snapshots
// the current bytes — exactly what a crash would leave on an FS backend whose
// writes all reached the disk — so recovery paths can be exercised at any
// boundary without ever abandoning a live store.
type Mem struct {
	mu    sync.Mutex
	segs  map[uint64]*bytes.Buffer
	ckpts map[uint64][]byte
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{segs: map[uint64]*bytes.Buffer{}, ckpts: map[uint64][]byte{}}
}

// Clone returns a deep copy of the backend's current state.
func (m *Mem) Clone() *Mem {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMem()
	for k, b := range m.segs {
		out.segs[k] = bytes.NewBuffer(append([]byte(nil), b.Bytes()...))
	}
	for k, b := range m.ckpts {
		out.ckpts[k] = append([]byte(nil), b...)
	}
	return out
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *Mem) ListSegments() ([]uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sortedKeys(m.segs), nil
}

func (m *Mem) OpenSegment(start uint64) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.segs[start]
	if !ok {
		return nil, fmt.Errorf("wal: no segment at %d", start)
	}
	return io.NopCloser(bytes.NewReader(append([]byte(nil), b.Bytes()...))), nil
}

// memSegment appends into the shared map under the backend lock.
type memSegment struct {
	m     *Mem
	start uint64
}

func (s memSegment) Write(p []byte) (int, error) {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	b, ok := s.m.segs[s.start]
	if !ok {
		return 0, fmt.Errorf("wal: segment %d removed while open", s.start)
	}
	return b.Write(p)
}

func (s memSegment) Sync() error  { return nil }
func (s memSegment) Close() error { return nil }

func (m *Mem) CreateSegment(start uint64) (SegmentWriter, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.segs[start] = &bytes.Buffer{}
	return memSegment{m: m, start: start}, nil
}

func (m *Mem) RemoveSegment(start uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.segs[start]; !ok {
		return fmt.Errorf("wal: no segment at %d", start)
	}
	delete(m.segs, start)
	return nil
}

func (m *Mem) SegmentSize(start uint64) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.segs[start]
	if !ok {
		return 0, fmt.Errorf("wal: no segment at %d", start)
	}
	return int64(b.Len()), nil
}

func (m *Mem) ListCheckpoints() ([]uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sortedKeys(m.ckpts), nil
}

func (m *Mem) WriteCheckpoint(lsn uint64, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ckpts[lsn] = buf.Bytes()
	return nil
}

func (m *Mem) OpenCheckpoint(lsn uint64) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.ckpts[lsn]
	if !ok {
		return nil, fmt.Errorf("wal: no checkpoint at %d", lsn)
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

// TruncateSegment cuts the segment's contents to its first n bytes —
// simulating the torn tail a crash leaves mid-frame. Crash-recovery tests
// combine it with Clone to freeze and mutilate a power-cut image.
func (m *Mem) TruncateSegment(start uint64, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.segs[start]
	if !ok {
		return fmt.Errorf("wal: no segment at %d", start)
	}
	if n < b.Len() {
		b.Truncate(n)
	}
	return nil
}

func (m *Mem) RemoveCheckpoint(lsn uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.ckpts[lsn]; !ok {
		return fmt.Errorf("wal: no checkpoint at %d", lsn)
	}
	delete(m.ckpts, lsn)
	return nil
}

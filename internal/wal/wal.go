// Package wal provides a write-ahead log for the live query store: an
// append-only, CRC-checked sequence of typed records spread over segments,
// plus atomically-published checkpoint blobs that bound how much of the log
// recovery has to replay. The log starts a new segment only at a checkpoint
// and at Open, never by size, so the active segment is the log since the last
// checkpoint (ActiveBytes), and pruning drops whole checkpoint intervals.
//
// Record framing is [u32 length][u32 CRC32(body)][body], little-endian, where
// body = [u8 type][u64 LSN][payload]. LSNs are assigned by the log and
// strictly increase by one per record; replay verifies the continuity, so a
// gap (which can only come from losing a whole segment) stops recovery at the
// last contiguous record instead of silently skipping writes. A torn tail —
// the partial frame a crash leaves at the end of the active segment — fails
// either the length, the CRC, or the LSN check and is treated as the end of
// the log; reopening starts a fresh segment at the next LSN and never appends
// to a possibly-torn file.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"
)

// Record is one entry in the log. Type is opaque to the wal package; the
// store above assigns meanings (delta batch, query registration, ...).
type Record struct {
	LSN     uint64
	Type    byte
	Payload []byte
}

// SyncMode selects when appended records are forced to stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs after every Append — maximum durability, one disk
	// flush per ingested batch.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs on a timer; a crash loses at most Interval worth
	// of acknowledged batches.
	SyncInterval
	// SyncOff never fsyncs explicitly (the OS flushes when it pleases).
	SyncOff
)

// Options configures a Log. Zero values pick the defaults noted per field.
type Options struct {
	// Mode is the fsync policy (default SyncAlways).
	Mode SyncMode
	// Interval is the flush period for SyncInterval (default 100ms).
	Interval time.Duration
}

const (
	frameHeader  = 8       // u32 length + u32 CRC
	bodyHeader   = 9       // u8 type + u64 LSN
	maxRecordLen = 1 << 30 // sanity cap on a single frame body

	defaultSyncInterval = 100 * time.Millisecond

	// keepCheckpoints is how many checkpoint generations WriteCheckpoint
	// retains: a corrupt newest one then falls back to the previous one and
	// a longer replay instead of failing recovery.
	keepCheckpoints = 2
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Log is the write-ahead log. All methods are safe for concurrent use.
type Log struct {
	backend Backend
	opts    Options

	mu      sync.Mutex
	nextLSN uint64
	cur     SegmentWriter
	curLen  int64
	dirty   bool // unsynced appends on cur
	closed  bool

	stopSync chan struct{}
	syncDone chan struct{}

	scratch []byte
}

// Open scans the backend's segments for the last contiguous record, then
// starts a fresh segment at the next LSN. An empty backend starts at LSN 1.
func Open(backend Backend, opts Options) (*Log, error) {
	if opts.Interval <= 0 {
		opts.Interval = defaultSyncInterval
	}
	last, err := scanLastLSN(backend)
	if err != nil {
		return nil, err
	}
	l := &Log{backend: backend, opts: opts, nextLSN: last + 1}
	if err := l.openSegmentLocked(); err != nil {
		return nil, err
	}
	if opts.Mode == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// scanLastLSN walks every segment in order and returns the LSN of the last
// record reachable through an unbroken chain (0 if none).
func scanLastLSN(backend Backend) (uint64, error) {
	starts, err := backend.ListSegments()
	if err != nil {
		return 0, err
	}
	var last uint64
	for i, start := range starts {
		if i > 0 && start != last+1 {
			break // gap between segments: everything beyond is unreachable
		}
		n, err := scanSegment(backend, start)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			break // empty or fully-torn segment ends the chain
		}
		last = start + n - 1
	}
	return last, nil
}

// scanSegment counts the contiguous valid records at the head of a segment.
func scanSegment(backend Backend, start uint64) (uint64, error) {
	rc, err := backend.OpenSegment(start)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	var n uint64
	err = readRecords(rc, start, func(Record) error { n++; return nil })
	if err != nil {
		return 0, err
	}
	return n, nil
}

// readRecords decodes frames sequentially, verifying CRC and LSN continuity
// (the first record must carry wantLSN, each next one +1). It stops silently
// at the first invalid frame — that is the torn-tail tolerance — and only
// returns an error for backend read failures or a callback error.
func readRecords(r io.Reader, wantLSN uint64, fn func(Record) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil
			}
			return err
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length < bodyHeader || length > maxRecordLen {
			return nil
		}
		// Grow the body incrementally rather than trusting the length field
		// with one huge allocation: a corrupted length then fails on EOF
		// cheaply instead of committing gigabytes first.
		var bodyBuf bytes.Buffer
		if _, err := io.CopyN(&bodyBuf, br, int64(length)); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil
			}
			return err
		}
		body := bodyBuf.Bytes()
		if crc32.ChecksumIEEE(body) != sum {
			return nil
		}
		lsn := binary.LittleEndian.Uint64(body[1:9])
		if lsn != wantLSN {
			return nil
		}
		wantLSN++
		if err := fn(Record{LSN: lsn, Type: body[0], Payload: body[bodyHeader:]}); err != nil {
			return err
		}
	}
}

// openSegmentLocked starts the segment beginning at nextLSN as the append
// target. Creating over an existing file truncates it; that only happens when
// the previous incarnation of the same segment held no valid records.
func (l *Log) openSegmentLocked() error {
	w, err := l.backend.CreateSegment(l.nextLSN)
	if err != nil {
		return err
	}
	l.cur = w
	l.curLen = 0
	return nil
}

// Append writes one record and returns its LSN. Under SyncAlways the record
// is on stable storage when Append returns.
func (l *Log) Append(typ byte, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	lsn := l.nextLSN
	frame := l.encodeFrame(typ, lsn, payload)
	if _, err := l.cur.Write(frame); err != nil {
		return 0, err
	}
	l.curLen += int64(len(frame))
	l.nextLSN++
	l.dirty = true
	if l.opts.Mode == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// encodeFrame renders [len][crc][type][lsn][payload] into the scratch buffer.
func (l *Log) encodeFrame(typ byte, lsn uint64, payload []byte) []byte {
	need := frameHeader + bodyHeader + len(payload)
	if cap(l.scratch) < need {
		l.scratch = make([]byte, need)
	}
	f := l.scratch[:need]
	body := f[frameHeader:]
	body[0] = typ
	binary.LittleEndian.PutUint64(body[1:9], lsn)
	copy(body[bodyHeader:], payload)
	binary.LittleEndian.PutUint32(f[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(f[4:8], crc32.ChecksumIEEE(body))
	return f
}

// rotateLocked seals the active segment (final sync) and opens the next one.
// A segment that took no record is created afresh in place.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.cur.Close(); err != nil {
		return err
	}
	return l.openSegmentLocked()
}

// Sync forces unsynced appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.cur.Sync(); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				l.syncLocked() // best effort; next Append surfaces a stuck disk
			}
			l.mu.Unlock()
		case <-l.stopSync:
			return
		}
	}
}

// Replay streams every reachable record of the backend with LSN >= from, in
// order — recovery's replay, run before a Log is opened. Replay stops at the
// first torn or discontinuous frame; records past a mid-log gap are
// unreachable by design. A log that starts after from cannot replay the
// records before its start, so Replay refuses it rather than skip them.
func Replay(backend Backend, from uint64, fn func(Record) error) error {
	starts, err := backend.ListSegments()
	if err != nil {
		return err
	}
	if len(starts) > 0 && starts[0] > max(from, 1) {
		return fmt.Errorf("wal: replay needs LSN %d, but the log starts at LSN %d", max(from, 1), starts[0])
	}
	var last uint64
	for i, start := range starts {
		if last != 0 && start != last+1 {
			return nil // gap between segments
		}
		if i > 0 && last == 0 {
			return nil // earlier segment was empty/torn: chain broken
		}
		// Skip sealed segments that end before `from` without reading them:
		// a sealed segment is contiguous by construction (rotation happens
		// after a synced write), so it covers exactly [start, next start).
		if i+1 < len(starts) && starts[i+1] <= from {
			last = starts[i+1] - 1
			continue
		}
		n := uint64(0)
		rc, err := backend.OpenSegment(start)
		if err != nil {
			return err
		}
		err = readRecords(rc, start, func(r Record) error {
			n++
			if r.LSN < from {
				return nil
			}
			return fn(r)
		})
		rc.Close()
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		last = start + n - 1
	}
	return nil
}

// TruncateBefore removes sealed segments whose every record has LSN < lsn.
// The active segment is never removed.
func (l *Log) TruncateBefore(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	starts, err := l.backend.ListSegments()
	if err != nil {
		return err
	}
	for i, start := range starts {
		// Segment i spans [start, starts[i+1]); removable iff it is sealed
		// (a successor exists) and the successor starts at or before lsn.
		if i+1 >= len(starts) || starts[i+1] > lsn {
			break
		}
		if err := l.backend.RemoveSegment(start); err != nil {
			return err
		}
	}
	return nil
}

// NextLSN returns the LSN the next Append will be assigned.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Stats is a point-in-time summary for monitoring.
type Stats struct {
	NextLSN     uint64 `json:"next_lsn"`
	Segments    int    `json:"segments"`
	LogBytes    int64  `json:"log_bytes"`
	Checkpoints int    `json:"checkpoints"`
	// LastCheckpointLSN is 0 when no checkpoint exists.
	LastCheckpointLSN uint64 `json:"last_checkpoint_lsn"`
}

// Stats reports segment and checkpoint totals from the backend.
func (l *Log) Stats() (Stats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{NextLSN: l.nextLSN}
	starts, err := l.backend.ListSegments()
	if err != nil {
		return st, err
	}
	st.Segments = len(starts)
	for _, s := range starts {
		n, err := l.backend.SegmentSize(s)
		if err != nil {
			return st, err
		}
		st.LogBytes += n
	}
	ckpts, err := l.backend.ListCheckpoints()
	if err != nil {
		return st, err
	}
	st.Checkpoints = len(ckpts)
	if len(ckpts) > 0 {
		st.LastCheckpointLSN = ckpts[len(ckpts)-1]
	}
	return st, nil
}

// ActiveBytes reports the bytes appended to the active segment: the log since
// the last checkpoint, or since Open if none was written since.
func (l *Log) ActiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.curLen
}

// WriteCheckpoint publishes a checkpoint covering every record with
// LSN <= lsn, which must be the last record appended (the caller keeps
// appends out until it returns). It seals the active segment first, so the
// records after the checkpoint start a new one, then prunes all but the
// newest keepCheckpoints checkpoints and the segments the oldest kept one
// covers.
func (l *Log) WriteCheckpoint(lsn uint64, write func(io.Writer) error) error {
	if err := func() error {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.closed {
			return ErrClosed
		}
		if lsn+1 != l.nextLSN {
			return fmt.Errorf("wal: checkpoint at LSN %d, but the last record is %d", lsn, l.nextLSN-1)
		}
		return l.rotateLocked()
	}(); err != nil {
		return err
	}
	if err := l.backend.WriteCheckpoint(lsn, write); err != nil {
		return err
	}
	ckpts, err := l.backend.ListCheckpoints()
	if err != nil {
		return err
	}
	for len(ckpts) > keepCheckpoints {
		if err := l.backend.RemoveCheckpoint(ckpts[0]); err != nil {
			return err
		}
		ckpts = ckpts[1:]
	}
	// Records at or below the *oldest retained* checkpoint are never needed
	// again: recovery starts from some retained checkpoint and replays the
	// suffix beyond it.
	return l.TruncateBefore(ckpts[0] + 1)
}

// Close syncs and seals the active segment. Further operations fail with
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	syncErr := l.syncLocked()
	closeErr := l.cur.Close()
	stop := l.stopSync
	done := l.syncDone
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// String renders a SyncMode for flags and stats output.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

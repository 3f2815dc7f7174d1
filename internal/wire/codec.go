package wire

import (
	"fmt"

	"d2cq/internal/live"
	"d2cq/internal/storage"
)

// Payload codecs: one encode/decode pair per frame type, built on the
// storage package's self-delimiting primitives (the same machinery the WAL
// payloads use). Decoders never trust a count without bounds and never index
// past the payload — FuzzWireFrame drives arbitrary bytes through all of
// them.

// Error codes carried by FrameError. The code makes client-side error
// mapping (conflict vs bad request vs auth) independent of message text.
const (
	ErrCodeBadRequest   = 1 // malformed frame payload or invalid arguments
	ErrCodeUnknownQuery = 2 // no query registered under that name
	ErrCodeConflict     = 3 // register: name taken by a different query
	ErrCodeClosed       = 4 // store shutting down
	ErrCodeUnauthorized = 5 // handshake: bad token or version
	ErrCodeInternal     = 6
)

// helloPayload is the client's opening frame: protocol magic and version
// first — refused before the token is even looked at if they mismatch —
// then the bearer token ("" when the server runs without auth).
type helloPayload struct {
	version uint64
	token   string
}

func encodeHello(p helloPayload) []byte {
	b := append([]byte(nil), Magic...)
	b = storage.AppendUvarint(b, p.version)
	b = storage.AppendString(b, p.token)
	return b
}

func decodeHello(payload []byte) (helloPayload, error) {
	var p helloPayload
	if len(payload) < len(Magic) || string(payload[:len(Magic)]) != Magic {
		return p, fmt.Errorf("wire: not a d2cq hello")
	}
	r := storage.NewReader(payload[len(Magic):])
	var err error
	if p.version, err = r.Uvarint(); err != nil {
		return p, err
	}
	if p.token, err = r.String(); err != nil {
		return p, err
	}
	return p, r.Done()
}

// helloOKPayload answers the handshake: the version the server speaks and
// the frame-body bound it enforces.
type helloOKPayload struct {
	version  uint64
	maxFrame uint64
}

func encodeHelloOK(p helloOKPayload) []byte {
	b := storage.AppendUvarint(nil, p.version)
	return storage.AppendUvarint(b, p.maxFrame)
}

func decodeHelloOK(payload []byte) (helloOKPayload, error) {
	var p helloOKPayload
	r := storage.NewReader(payload)
	var err error
	if p.version, err = r.Uvarint(); err != nil {
		return p, err
	}
	if p.maxFrame, err = r.Uvarint(); err != nil {
		return p, err
	}
	return p, r.Done()
}

// errorPayload carries a code plus human-readable message.
type errorPayload struct {
	code uint64
	msg  string
}

func encodeError(code uint64, msg string) []byte {
	b := storage.AppendUvarint(nil, code)
	return storage.AppendString(b, msg)
}

func decodeError(payload []byte) (errorPayload, error) {
	var p errorPayload
	r := storage.NewReader(payload)
	var err error
	if p.code, err = r.Uvarint(); err != nil {
		return p, err
	}
	if p.msg, err = r.String(); err != nil {
		return p, err
	}
	return p, r.Done()
}

// registerPayload names a query and gives its text.
type registerPayload struct {
	name  string
	query string
}

func encodeRegister(p registerPayload) []byte {
	b := storage.AppendString(nil, p.name)
	return storage.AppendString(b, p.query)
}

func decodeRegister(payload []byte) (registerPayload, error) {
	var p registerPayload
	r := storage.NewReader(payload)
	var err error
	if p.name, err = r.String(); err != nil {
		return p, err
	}
	if p.query, err = r.String(); err != nil {
		return p, err
	}
	return p, r.Done()
}

// RegisterInfo is the REGISTER_OK payload: the registered query's shape over
// the snapshot it was admitted on.
type RegisterInfo struct {
	Version uint64
	Count   int64
	Vars    []string
}

func encodeRegisterOK(p RegisterInfo) []byte {
	b := storage.AppendUvarint(nil, p.Version)
	b = storage.AppendUvarint(b, uint64(p.Count))
	b = appendStrings(b, p.Vars)
	return b
}

func decodeRegisterOK(payload []byte) (RegisterInfo, error) {
	var p RegisterInfo
	r := storage.NewReader(payload)
	var err error
	if p.Version, err = r.Uvarint(); err != nil {
		return p, err
	}
	var c uint64
	if c, err = r.Uvarint(); err != nil {
		return p, err
	}
	p.Count = int64(c)
	if p.Vars, err = readStrings(r); err != nil {
		return p, err
	}
	return p, r.Done()
}

// submitPayload is a delta plus the sync flag (ack once the delta is visible).
type submitPayload struct {
	sync  bool
	delta *storage.Delta
}

func encodeSubmit(p submitPayload) []byte {
	b := []byte{0}
	if p.sync {
		b[0] = 1
	}
	return append(b, storage.EncodeDelta(p.delta)...)
}

func decodeSubmit(payload []byte) (submitPayload, error) {
	var p submitPayload
	if len(payload) < 1 {
		return p, fmt.Errorf("wire: empty submit payload")
	}
	p.sync = payload[0] != 0
	var err error
	p.delta, err = storage.DecodeDelta(payload[1:])
	return p, err
}

// submitOKPayload acks a submit with the version and pending tuple count
// observed after it.
type submitOKPayload struct {
	version uint64
	pending uint64
}

func encodeSubmitOK(p submitOKPayload) []byte {
	b := storage.AppendUvarint(nil, p.version)
	return storage.AppendUvarint(b, p.pending)
}

func decodeSubmitOK(payload []byte) (submitOKPayload, error) {
	var p submitOKPayload
	r := storage.NewReader(payload)
	var err error
	if p.version, err = r.Uvarint(); err != nil {
		return p, err
	}
	if p.pending, err = r.Uvarint(); err != nil {
		return p, err
	}
	return p, r.Done()
}

// queryPayload asks for a point-in-time solutions read. limit 0 means all
// rows (the client maps its limit <= 0 onto it).
type queryPayload struct {
	name  string
	limit uint64
}

func encodeQuery(p queryPayload) []byte {
	b := storage.AppendString(nil, p.name)
	return storage.AppendUvarint(b, p.limit)
}

func decodeQuery(payload []byte) (queryPayload, error) {
	var p queryPayload
	r := storage.NewReader(payload)
	var err error
	if p.name, err = r.String(); err != nil {
		return p, err
	}
	if p.limit, err = r.Uvarint(); err != nil {
		return p, err
	}
	return p, r.Done()
}

// queryOKPayload carries the rows and the snapshot version they were read
// at.
type queryOKPayload struct {
	version uint64
	rows    [][]string
}

func encodeQueryOK(p queryOKPayload) []byte {
	b := storage.AppendUvarint(nil, p.version)
	return appendRows(b, p.rows)
}

func decodeQueryOK(payload []byte) (queryOKPayload, error) {
	var p queryOKPayload
	r := storage.NewReader(payload)
	var err error
	if p.version, err = r.Uvarint(); err != nil {
		return p, err
	}
	if p.rows, err = readRows(r); err != nil {
		return p, err
	}
	return p, r.Done()
}

// watchPayload opens a watch stream. hasCursor distinguishes "resume from
// version `from`" from a fresh watch, as Store.Subscribe takes them; credit
// is the initial notification budget — 0 parks the stream until the first
// CREDIT frame.
type watchPayload struct {
	name      string
	hasCursor bool
	from      uint64
	credit    uint64
}

func encodeWatch(p watchPayload) []byte {
	b := storage.AppendString(nil, p.name)
	flag := byte(0)
	if p.hasCursor {
		flag = 1
	}
	b = append(b, flag)
	b = storage.AppendUvarint(b, p.from)
	return storage.AppendUvarint(b, p.credit)
}

func decodeWatch(payload []byte) (watchPayload, error) {
	var p watchPayload
	r := storage.NewReader(payload)
	var err error
	if p.name, err = r.String(); err != nil {
		return p, err
	}
	var flag uint64
	if flag, err = r.Uvarint(); err != nil {
		return p, err
	}
	p.hasCursor = flag != 0
	if p.from, err = r.Uvarint(); err != nil {
		return p, err
	}
	if p.credit, err = r.Uvarint(); err != nil {
		return p, err
	}
	return p, r.Done()
}

// WatchSnapshot is the WATCH_OK payload: the live.Snapshot the stream starts
// from. When Resumed is set the missed notifications follow as NOTIFY frames
// and the snapshot fields describe the current state only informationally;
// when it is not, the snapshot is the client's synchronisation point (Lagged
// flags a presented cursor the server could not honour). Query is not sent:
// the client fills in the name it watched.
type WatchSnapshot = live.Snapshot

func encodeWatchOK(p WatchSnapshot) []byte {
	flags := byte(0)
	if p.Resumed {
		flags |= 1
	}
	if p.Lagged {
		flags |= 2
	}
	b := []byte{flags}
	b = storage.AppendUvarint(b, p.Version)
	b = storage.AppendUvarint(b, uint64(p.Count))
	return appendStrings(b, p.Vars)
}

func decodeWatchOK(payload []byte) (WatchSnapshot, error) {
	var p WatchSnapshot
	if len(payload) < 1 {
		return p, fmt.Errorf("wire: empty watch-ok payload")
	}
	p.Resumed = payload[0]&1 != 0
	p.Lagged = payload[0]&2 != 0
	r := storage.NewReader(payload[1:])
	var err error
	if p.Version, err = r.Uvarint(); err != nil {
		return p, err
	}
	var c uint64
	if c, err = r.Uvarint(); err != nil {
		return p, err
	}
	p.Count = int64(c)
	if p.Vars, err = readStrings(r); err != nil {
		return p, err
	}
	return p, r.Done()
}

// EncodeNotification is the binary notification codec: the wire NOTIFY
// payload for one live.Notification. Unlike the SSE path there is no JSON —
// rows travel as the same length-prefixed string tuples the WAL's delta
// payloads use.
func EncodeNotification(n *live.Notification) []byte {
	b := storage.AppendString(nil, n.Query)
	b = storage.AppendUvarint(b, n.Version)
	b = storage.AppendUvarint(b, uint64(n.Count))
	b = storage.AppendUvarint(b, uint64(n.PrevCount))
	b = storage.AppendUvarint(b, n.Lagged)
	b = appendRows(b, n.Added)
	b = appendRows(b, n.Removed)
	return b
}

// DecodeNotification parses an EncodeNotification payload.
func DecodeNotification(payload []byte) (live.Notification, error) {
	var n live.Notification
	r := storage.NewReader(payload)
	var err error
	if n.Query, err = r.String(); err != nil {
		return n, err
	}
	if n.Version, err = r.Uvarint(); err != nil {
		return n, err
	}
	var c uint64
	if c, err = r.Uvarint(); err != nil {
		return n, err
	}
	n.Count = int64(c)
	if c, err = r.Uvarint(); err != nil {
		return n, err
	}
	n.PrevCount = int64(c)
	if n.Lagged, err = r.Uvarint(); err != nil {
		return n, err
	}
	if n.Added, err = readRows(r); err != nil {
		return n, err
	}
	if n.Removed, err = readRows(r); err != nil {
		return n, err
	}
	return n, r.Done()
}

// creditPayload grants n more notification deliveries.
func encodeCredit(n uint64) []byte { return storage.AppendUvarint(nil, n) }

func decodeCredit(payload []byte) (uint64, error) {
	r := storage.NewReader(payload)
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	return n, r.Done()
}

// appendStrings / readStrings encode a count-prefixed string list.
func appendStrings(b []byte, ss []string) []byte {
	b = storage.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = storage.AppendString(b, s)
	}
	return b
}

func readStrings(r *storage.Reader) ([]string, error) {
	n, err := r.Count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	// Every string costs at least one encoded byte, so a count beyond the
	// remaining payload is corruption — refuse before sizing the slice.
	if n > r.Remaining() {
		return nil, fmt.Errorf("wire: string count %d exceeds %d remaining bytes", n, r.Remaining())
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.String()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// appendRows / readRows encode a list of string tuples, each row
// length-prefixed — the same shape as the delta codec's tuple lists.
func appendRows(b []byte, rows [][]string) []byte {
	b = storage.AppendUvarint(b, uint64(len(rows)))
	for _, row := range rows {
		b = appendStrings(b, row)
	}
	return b
}

func readRows(r *storage.Reader) ([][]string, error) {
	n, err := r.Count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > r.Remaining() {
		return nil, fmt.Errorf("wire: row count %d exceeds %d remaining bytes", n, r.Remaining())
	}
	out := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		row, err := readStrings(r)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

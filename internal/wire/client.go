package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"d2cq/internal/live"
	"d2cq/internal/storage"
)

// ClientOptions configures Dial.
type ClientOptions struct {
	// Token is presented in the HELLO; must match the server's.
	Token string
	// DialTimeout bounds connecting plus the handshake (default 10s).
	DialTimeout time.Duration
}

// Client is a native wire-protocol client: one connection, many concurrent
// requests and watch streams multiplexed over it. All methods are safe for
// concurrent use; a connection-level failure fails every outstanding call
// with the same error.
type Client struct {
	nc net.Conn

	wmu sync.Mutex
	bw  *bufio.Writer

	mu         sync.Mutex
	nextStream uint32
	calls      map[uint32]chan Frame
	watches    map[uint32]*Watch
	closed     bool
	err        error

	done chan struct{}
}

// RemoteError is a server-reported ERROR frame, surfaced as a typed error so
// callers can branch on the code.
type RemoteError struct {
	Code uint64
	Msg  string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Msg) }

// Dial connects to addr, runs the handshake, and returns a ready client.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	timeout := opts.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(nc, opts, deadline)
}

// NewClient runs the handshake over an existing connection (the transport
// seam Dial uses; tests drive it over net.Pipe-style conns). deadline bounds
// the handshake; zero means none.
func NewClient(nc net.Conn, opts ClientOptions, deadline time.Time) (*Client, error) {
	c := &Client{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 1<<16),
		calls:   map[uint32]chan Frame{},
		watches: map[uint32]*Watch{},
		done:    make(chan struct{}),
	}
	if !deadline.IsZero() {
		nc.SetDeadline(deadline)
	}
	hello := AppendFrame(nil, Frame{Type: FrameHello, Stream: 0,
		Payload: encodeHello(helloPayload{version: Version, token: opts.Token})})
	if _, err := nc.Write(hello); err != nil {
		nc.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(nc, 1<<16)
	f, err := ReadFrame(br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	switch f.Type {
	case FrameHelloOK:
		ok, err := decodeHelloOK(f.Payload)
		if err != nil {
			nc.Close()
			return nil, err
		}
		if ok.version != Version {
			nc.Close()
			return nil, fmt.Errorf("wire: server speaks version %d, client %d", ok.version, Version)
		}
	case FrameError:
		p, derr := decodeError(f.Payload)
		nc.Close()
		if derr != nil {
			return nil, fmt.Errorf("wire: handshake refused")
		}
		return nil, &RemoteError{Code: p.code, Msg: p.msg}
	default:
		nc.Close()
		return nil, fmt.Errorf("wire: unexpected handshake frame type 0x%02x", f.Type)
	}
	nc.SetDeadline(time.Time{})
	go c.readLoop(br)
	return c, nil
}

// Close tears the connection down; every outstanding call and watch stream
// ends with a connection-closed error.
func (c *Client) Close() error {
	c.fail(errors.New("wire: client closed"))
	return nil
}

// Err returns the connection's terminal error, or nil while it is healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	return nil
}

// fail ends the connection once: the socket closes (unblocking the read
// loop) and pending unary calls see the error via done. The watches are the
// read loop's to end, once it has exited: it may be sending on their
// channels until then.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	c.mu.Unlock()
	close(c.done)
	c.nc.Close()
}

// readLoop routes incoming frames: watch-stream frames to their Watch,
// everything else to the one-shot call channel registered for the stream.
// It alone sends on and closes the watch channels; when it exits every
// watch still open ends with the connection's error.
func (c *Client) readLoop(br *bufio.Reader) {
	defer func() {
		c.mu.Lock()
		watches, err := c.watches, c.err
		c.watches = map[uint32]*Watch{}
		c.mu.Unlock()
		for _, w := range watches {
			w.end(err)
		}
	}()
	for {
		f, err := ReadFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("wire: connection lost: %w", err))
			return
		}
		switch f.Type {
		case FrameNotify, FrameWatchEnd:
			c.mu.Lock()
			w := c.watches[f.Stream]
			if f.Type == FrameWatchEnd {
				delete(c.watches, f.Stream)
			}
			c.mu.Unlock()
			if w == nil {
				continue
			}
			if f.Type == FrameWatchEnd {
				w.end(nil)
				continue
			}
			n, err := DecodeNotification(f.Payload)
			if err != nil {
				c.fail(fmt.Errorf("wire: bad notification: %w", err))
				return
			}
			// The channel's capacity covers every credit the client has
			// granted, so this send cannot block on a well-behaved server;
			// blocking here would mean the server overran its credit.
			select {
			case w.ch <- n:
			case <-c.done:
				return
			}
		case FrameError:
			if f.Stream == 0 {
				p, derr := decodeError(f.Payload)
				if derr != nil {
					c.fail(errors.New("wire: server error"))
				} else {
					c.fail(&RemoteError{Code: p.code, Msg: p.msg})
				}
				return
			}
			fallthrough
		default:
			c.mu.Lock()
			ch := c.calls[f.Stream]
			delete(c.calls, f.Stream)
			// An ERROR on a live watch stream ends that stream.
			var w *Watch
			if ch == nil && f.Type == FrameError {
				w = c.watches[f.Stream]
				delete(c.watches, f.Stream)
			}
			c.mu.Unlock()
			if ch != nil {
				ch <- f
			} else if w != nil {
				p, derr := decodeError(f.Payload)
				if derr == nil {
					w.end(&RemoteError{Code: p.code, Msg: p.msg})
				} else {
					w.end(errors.New("wire: watch stream error"))
				}
			}
		}
	}
}

// writeFrame encodes one frame straight into the buffered writer and onto
// the connection.
func (c *Client) writeFrame(f Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.bw.Write(AppendFrame(c.bw.AvailableBuffer(), f)); err != nil {
		c.fail(err)
		return err
	}
	if err := c.bw.Flush(); err != nil {
		c.fail(err)
		return err
	}
	return nil
}

// call sends one request frame on a fresh stream and waits for its response.
func (c *Client) call(ctx context.Context, typ byte, payload []byte) (Frame, error) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return Frame{}, err
	}
	c.nextStream++
	stream := c.nextStream
	ch := make(chan Frame, 1)
	c.calls[stream] = ch
	c.mu.Unlock()
	if err := c.writeFrame(Frame{Type: typ, Stream: stream, Payload: payload}); err != nil {
		c.mu.Lock()
		delete(c.calls, stream)
		c.mu.Unlock()
		return Frame{}, err
	}
	select {
	case f := <-ch:
		if f.Type == FrameError {
			p, derr := decodeError(f.Payload)
			if derr != nil {
				return Frame{}, fmt.Errorf("wire: malformed error frame")
			}
			return Frame{}, &RemoteError{Code: p.code, Msg: p.msg}
		}
		return f, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.calls, stream)
		c.mu.Unlock()
		return Frame{}, ctx.Err()
	case <-c.done:
		return Frame{}, c.err
	}
}

// Register registers a continuous query by name and source text.
func (c *Client) Register(ctx context.Context, name, query string) (RegisterInfo, error) {
	f, err := c.call(ctx, FrameRegister, encodeRegister(registerPayload{name: name, query: query}))
	if err != nil {
		return RegisterInfo{}, err
	}
	if f.Type != FrameRegisterOK {
		return RegisterInfo{}, fmt.Errorf("wire: unexpected response type 0x%02x", f.Type)
	}
	return decodeRegisterOK(f.Payload)
}

// Submit ships a delta. With sync set the server acks once a flush has made
// the delta visible, and the returned version is one at which it is;
// otherwise the ack is an ingest ack
// and pending reports the staged backlog.
func (c *Client) Submit(ctx context.Context, delta *storage.Delta, sync bool) (version uint64, pending int, err error) {
	f, err := c.call(ctx, FrameSubmit, encodeSubmit(submitPayload{sync: sync, delta: delta}))
	if err != nil {
		return 0, 0, err
	}
	if f.Type != FrameSubmitOK {
		return 0, 0, fmt.Errorf("wire: unexpected response type 0x%02x", f.Type)
	}
	p, err := decodeSubmitOK(f.Payload)
	if err != nil {
		return 0, 0, err
	}
	return p.version, int(p.pending), nil
}

// Solutions reads the named query's current rows (limit <= 0: all) and the
// version they were read at.
func (c *Client) Solutions(ctx context.Context, name string, limit int) ([][]string, uint64, error) {
	var l uint64
	if limit > 0 {
		l = uint64(limit)
	}
	f, err := c.call(ctx, FrameQuery, encodeQuery(queryPayload{name: name, limit: l}))
	if err != nil {
		return nil, 0, err
	}
	if f.Type != FrameQueryOK {
		return nil, 0, fmt.Errorf("wire: unexpected response type 0x%02x", f.Type)
	}
	p, err := decodeQueryOK(f.Payload)
	if err != nil {
		return nil, 0, err
	}
	return p.rows, p.version, nil
}

// Stats fetches the server's stats document ({"wire": ..., "store": ...}).
func (c *Client) Stats(ctx context.Context) (json.RawMessage, error) {
	f, err := c.call(ctx, FrameStats, nil)
	if err != nil {
		return nil, err
	}
	if f.Type != FrameStatsOK {
		return nil, fmt.Errorf("wire: unexpected response type 0x%02x", f.Type)
	}
	return json.RawMessage(f.Payload), nil
}

// WatchOptions tunes a watch stream.
type WatchOptions struct {
	// From, when set, resumes the stream after the given version cursor
	// (WATCH from=version). The snapshot's Resumed reports whether the
	// server still held that point; Lagged that it did not.
	From *uint64
	// Window is the credit window (default 32): the initial credit, the
	// receive buffer's depth, and — unless Manual — the replenish target.
	Window int
	// Manual disables automatic credit replenishment: the stream starts
	// with Window credits (0 if Window < 0) and advances only on explicit
	// Grant calls. For tests and consumers that meter their own intake.
	Manual bool
}

// Watch is a live watch stream: a cursor-style subscription mirroring
// live.Subscription across the connection.
type Watch struct {
	c      *Client
	stream uint32

	// Snapshot is the WATCH_OK synchronisation point.
	Snapshot WatchSnapshot

	ch     chan live.Notification
	window int
	manual bool

	// consumed counts deliveries since the last replenish grant; only the
	// Next caller touches it.
	consumed int

	endOnce sync.Once
	mu      sync.Mutex
	err     error
}

// Watch opens a watch stream on the named query. The returned Watch's
// Snapshot holds the synchronisation point; Next yields notifications as
// credit allows.
func (c *Client) Watch(ctx context.Context, name string, opts WatchOptions) (*Watch, error) {
	window := opts.Window
	if window == 0 {
		window = 32
	}
	if window < 0 {
		window = 0
	}
	p := watchPayload{name: name, credit: uint64(window)}
	if opts.From != nil {
		p.hasCursor = true
		p.from = *opts.From
	}

	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextStream++
	stream := c.nextStream
	ch := make(chan Frame, 1)
	c.calls[stream] = ch
	// Register the Watch before the WATCH frame goes out: the read loop may
	// route a NOTIFY for this stream the moment the server opens it. The
	// buffer must cover the whole credit window so a full window of
	// notifications never blocks the read loop (and with it every other
	// stream on the connection).
	w := &Watch{
		c:      c,
		stream: stream,
		ch:     make(chan live.Notification, window+1),
		window: window,
		manual: opts.Manual,
	}
	c.watches[stream] = w
	c.mu.Unlock()

	cleanup := func() {
		c.mu.Lock()
		delete(c.calls, stream)
		delete(c.watches, stream)
		c.mu.Unlock()
	}
	if err := c.writeFrame(Frame{Type: FrameWatch, Stream: stream, Payload: encodeWatch(p)}); err != nil {
		cleanup()
		return nil, err
	}
	select {
	case f := <-ch:
		switch f.Type {
		case FrameWatchOK:
			snap, err := decodeWatchOK(f.Payload)
			if err != nil {
				cleanup()
				return nil, err
			}
			snap.Query = name
			w.Snapshot = snap
			return w, nil
		case FrameError:
			cleanup()
			p, derr := decodeError(f.Payload)
			if derr != nil {
				return nil, fmt.Errorf("wire: malformed error frame")
			}
			return nil, &RemoteError{Code: p.code, Msg: p.msg}
		default:
			cleanup()
			return nil, fmt.Errorf("wire: unexpected response type 0x%02x", f.Type)
		}
	case <-ctx.Done():
		cleanup()
		return nil, ctx.Err()
	case <-c.done:
		cleanup()
		return nil, c.err
	}
}

// end closes the stream's channel after any queued notifications; err (may
// be nil for a server-side WATCH_END) becomes Err's answer.
func (w *Watch) end(err error) {
	w.endOnce.Do(func() {
		w.mu.Lock()
		w.err = err
		w.mu.Unlock()
		close(w.ch)
	})
}

// Err reports why the stream ended: nil for a clean WATCH_END (Cancel or
// server shutdown of the query), the connection error otherwise. Valid after
// Next returns false.
func (w *Watch) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Next blocks for the next notification. ok is false when the stream is over
// (cancelled, query dropped, or connection lost — see Err). In automatic
// mode consumed credit is replenished once half the window is spent, keeping
// the stream fed without a frame per notification.
func (w *Watch) Next(ctx context.Context) (live.Notification, bool) {
	select {
	case n, ok := <-w.ch:
		if !ok {
			return live.Notification{}, false
		}
		if !w.manual && w.window > 0 {
			w.consumed++
			if w.consumed*2 >= w.window {
				w.Grant(w.consumed)
				w.consumed = 0
			}
		}
		return n, true
	case <-ctx.Done():
		return live.Notification{}, false
	}
}

// Grant sends n more notification credits to the server. In Manual mode this
// is the only way the stream advances once the initial window is spent.
func (w *Watch) Grant(n int) error {
	if n <= 0 {
		return nil
	}
	return w.c.writeFrame(Frame{Type: FrameCredit, Stream: w.stream, Payload: encodeCredit(uint64(n))})
}

// Cancel asks the server to end the stream; the server answers WATCH_END,
// which closes the notification channel. Safe to call more than once.
func (w *Watch) Cancel() error {
	return w.c.writeFrame(Frame{Type: FrameCancel, Stream: w.stream})
}

package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"d2cq/internal/live"
)

// Options configures a wire Server.
type Options struct {
	// Token is the bearer token every connection must present in its HELLO.
	// Empty disables auth.
	Token string
}

// DefaultHandshakeTimeout is how long an accepted connection gets to say who
// it is before it is dropped: the HELLO exchange here, the request headers on
// the daemon's HTTP listener. A connection that never speaks cannot pin a
// goroutine forever.
const DefaultHandshakeTimeout = 10 * time.Second

// writeTimeout bounds a single frame write: a peer that stops reading fails
// its connection instead of wedging the writer.
const writeTimeout = 60 * time.Second

// Server serves the wire protocol over a live.Service — the same store the
// HTTP handlers route to, so both protocols observe one state. Create with
// NewServer, feed listeners to Serve (one call per listener), stop with
// Close.
type Server struct {
	svc  live.Service
	opts Options

	stats serverCounters

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*conn]struct{}
	closed bool
}

// serverCounters are the wire-level stats, independent of the store's.
type serverCounters struct {
	connections  atomic.Uint64 // accepted and authenticated
	activeConns  atomic.Int64
	authFailures atomic.Uint64
	framesIn     atomic.Uint64
	framesOut    atomic.Uint64
	notifies     atomic.Uint64 // NOTIFY frames sent (credit-paid deliveries)
	watches      atomic.Uint64 // WATCH streams opened
}

// ServerStats is the wire section of the STATS response.
type ServerStats struct {
	Connections  uint64 `json:"connections"`
	ActiveConns  int64  `json:"active_conns"`
	AuthFailures uint64 `json:"auth_failures"`
	FramesIn     uint64 `json:"frames_in"`
	FramesOut    uint64 `json:"frames_out"`
	Notifies     uint64 `json:"notifies"`
	Watches      uint64 `json:"watches"`
}

// NewServer returns a Server over svc.
func NewServer(svc live.Service, opts Options) *Server {
	return &Server{
		svc:   svc,
		opts:  opts,
		lns:   map[net.Listener]struct{}{},
		conns: map[*conn]struct{}{},
	}
}

// Stats returns the wire-level counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Connections:  s.stats.connections.Load(),
		ActiveConns:  s.stats.activeConns.Load(),
		AuthFailures: s.stats.authFailures.Load(),
		FramesIn:     s.stats.framesIn.Load(),
		FramesOut:    s.stats.framesOut.Load(),
		Notifies:     s.stats.notifies.Load(),
		Watches:      s.stats.watches.Load(),
	}
}

// Serve accepts connections on ln until it fails or the server closes.
// After Close it returns nil.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go s.serveConn(nc)
	}
}

// Close stops every listener and connection. In-flight watch streams end as
// their connections close; the store itself is not touched (the caller owns
// its lifecycle — d2cqd closes the store first so streams drain before the
// transport drops).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.fail()
	}
	return nil
}

// conn is one authenticated connection: a reader loop dispatching request
// frames, a resident worker serving unary requests one at a time (with a
// goroutine of their own for those arriving while it is busy), a writer
// goroutine serialising response frames from every concurrent handler, and
// the registry of live watch streams (for CREDIT and CANCEL routing).
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader

	ctx    context.Context
	cancel context.CancelFunc

	out chan Frame // frames encoded and multiplexed onto nc by the writer

	mu      sync.Mutex
	watches map[uint32]*serverWatch

	failOnce sync.Once
}

// serverWatch is one live watch stream on a connection.
type serverWatch struct {
	sub    *live.Subscription
	cancel context.CancelFunc
}

// serveConn runs the handshake and then the frame loop.
func (s *Server) serveConn(nc net.Conn) {
	c := &conn{
		srv:     s,
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 1<<16),
		out:     make(chan Frame, 64),
		watches: map[uint32]*serverWatch{},
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	defer c.fail()

	// Handshake, under a deadline and before the conn counts as active.
	nc.SetReadDeadline(time.Now().Add(DefaultHandshakeTimeout))
	f, err := ReadFrame(c.br)
	if err != nil {
		return
	}
	refuse := func(code uint64, msg string) {
		s.stats.authFailures.Add(1)
		nc.SetWriteDeadline(time.Now().Add(DefaultHandshakeTimeout))
		nc.Write(AppendFrame(nil, Frame{Type: FrameError, Stream: 0, Payload: encodeError(code, msg)}))
	}
	if f.Type != FrameHello || f.Stream != 0 {
		refuse(ErrCodeBadRequest, "expected HELLO")
		return
	}
	hello, err := decodeHello(f.Payload)
	if err != nil {
		refuse(ErrCodeBadRequest, err.Error())
		return
	}
	if hello.version != Version {
		refuse(ErrCodeUnauthorized, fmt.Sprintf("protocol version %d, server speaks %d", hello.version, Version))
		return
	}
	if !TokenOK(s.opts.Token, hello.token) {
		refuse(ErrCodeUnauthorized, "bad token")
		return
	}
	nc.SetReadDeadline(time.Time{})

	// Register with the server (refusing if it closed in the meantime) and
	// greet.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.stats.connections.Add(1)
	s.stats.activeConns.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.stats.activeConns.Add(-1)
	}()
	go c.writer()
	work := make(chan Frame) // unbuffered: a send succeeds only into an idle worker
	go c.worker(work)
	c.send(Frame{Type: FrameHelloOK, Stream: 0,
		Payload: encodeHelloOK(helloOKPayload{version: Version, maxFrame: MaxFrameLen})})

	// Frame loop. It never runs a request itself: a SUBMIT blocked on a
	// sync flush must not stall CREDIT frames arriving for watch streams on
	// the same connection. A unary request goes to the resident worker if it
	// is idle — its stack, grown by earlier requests, stays grown — and to a
	// goroutine of its own otherwise, so a busy worker delays nothing. A
	// WATCH always gets its own goroutine, which pumps the stream.
	for {
		f, err := ReadFrame(c.br)
		if err != nil {
			return // peer gone or protocol violation: tear the conn down
		}
		s.stats.framesIn.Add(1)
		switch f.Type {
		case FrameRegister, FrameSubmit, FrameQuery, FrameStats:
			select {
			case work <- f:
			default:
				go c.handle(f)
			}
		case FrameWatch:
			go c.handleWatch(f.Stream, f.Payload)
		case FrameCredit:
			n, err := decodeCredit(f.Payload)
			if err != nil {
				c.sendError(f.Stream, ErrCodeBadRequest, err.Error())
				continue
			}
			c.mu.Lock()
			w := c.watches[f.Stream]
			c.mu.Unlock()
			if w != nil {
				w.sub.Grant(n)
			}
		case FrameCancel:
			c.mu.Lock()
			w := c.watches[f.Stream]
			c.mu.Unlock()
			if w != nil {
				// End the pump promptly (its Next unblocks via the context)
				// and the subscription with it; the pump sends WATCH_END.
				w.cancel()
				w.sub.Cancel()
			}
		default:
			c.sendError(0, ErrCodeBadRequest, fmt.Sprintf("unknown frame type 0x%02x", f.Type))
			return
		}
	}
}

// fail tears the connection down: every watch subscription is cancelled,
// the writer and the worker stop, the socket closes. Idempotent.
func (c *conn) fail() {
	c.failOnce.Do(func() {
		c.cancel()
		c.mu.Lock()
		watches := make([]*serverWatch, 0, len(c.watches))
		for _, w := range c.watches {
			watches = append(watches, w)
		}
		c.watches = map[uint32]*serverWatch{}
		c.mu.Unlock()
		for _, w := range watches {
			w.cancel()
			w.sub.Cancel()
		}
		c.nc.Close()
	})
}

// worker serves the unary requests the frame loop hands it, one at a time,
// until the connection ends.
func (c *conn) worker(work <-chan Frame) {
	for {
		select {
		case f := <-work:
			c.handle(f)
		case <-c.ctx.Done():
			return
		}
	}
}

// handle serves one unary request.
func (c *conn) handle(f Frame) {
	switch f.Type {
	case FrameRegister:
		c.handleRegister(f.Stream, f.Payload)
	case FrameSubmit:
		c.handleSubmit(f.Stream, f.Payload)
	case FrameQuery:
		c.handleQuery(f.Stream, f.Payload)
	case FrameStats:
		c.handleStats(f.Stream)
	}
}

// writer encodes frames straight into its buffered writer and onto the
// socket, flushing whenever the queue drains. It owns all writes after the
// handshake.
func (c *conn) writer() {
	bw := bufio.NewWriterSize(c.nc, 1<<16)
	for {
		select {
		case f := <-c.out:
			c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := bw.Write(AppendFrame(bw.AvailableBuffer(), f)); err != nil {
				c.fail()
				return
			}
			c.srv.stats.framesOut.Add(1)
			if len(c.out) == 0 {
				if err := bw.Flush(); err != nil {
					c.fail()
					return
				}
			}
		case <-c.ctx.Done():
			return
		}
	}
}

// send queues one frame for the writer, which encodes it later: the caller
// must not modify f.Payload afterwards. It blocks only against the writer's
// own backpressure and gives up when the connection dies.
func (c *conn) send(f Frame) {
	select {
	case c.out <- f:
	case <-c.ctx.Done():
	}
}

func (c *conn) sendError(stream uint32, code uint64, msg string) {
	c.send(Frame{Type: FrameError, Stream: stream, Payload: encodeError(code, msg)})
}

// errCodes is the wire error code of each class of failed request.
var errCodes = [...]uint64{
	live.Internal:     ErrCodeInternal,
	live.BadRequest:   ErrCodeBadRequest,
	live.UnknownQuery: ErrCodeUnknownQuery,
	live.Conflict:     ErrCodeConflict,
	live.Closed:       ErrCodeClosed,
}

// sendFailure answers a request the store refused or failed.
func (c *conn) sendFailure(stream uint32, err error) {
	c.sendError(stream, errCodes[live.Classify(err)], err.Error())
}

func (c *conn) handleRegister(stream uint32, payload []byte) {
	p, err := decodeRegister(payload)
	if err != nil {
		c.sendError(stream, ErrCodeBadRequest, err.Error())
		return
	}
	info, err := live.RegisterText(c.ctx, c.srv.svc, p.name, p.query)
	if err != nil {
		c.sendFailure(stream, err)
		return
	}
	c.send(Frame{Type: FrameRegisterOK, Stream: stream,
		Payload: encodeRegisterOK(RegisterInfo{Version: info.Version, Count: info.Count, Vars: info.Vars})})
}

func (c *conn) handleSubmit(stream uint32, payload []byte) {
	p, err := decodeSubmit(payload)
	if err != nil {
		c.sendError(stream, ErrCodeBadRequest, err.Error())
		return
	}
	ack, err := live.SubmitAck(c.ctx, c.srv.svc, p.delta, p.sync)
	if err != nil {
		c.sendFailure(stream, err)
		return
	}
	c.send(Frame{Type: FrameSubmitOK, Stream: stream,
		Payload: encodeSubmitOK(submitOKPayload{version: ack.Version, pending: uint64(ack.PendingTuples)})})
}

func (c *conn) handleQuery(stream uint32, payload []byte) {
	p, err := decodeQuery(payload)
	if err != nil {
		c.sendError(stream, ErrCodeBadRequest, err.Error())
		return
	}
	limit := int(p.limit) // 0 means all, matching Solutions' limit <= 0
	rows, version, err := c.srv.svc.Solutions(c.ctx, p.name, limit)
	if err != nil {
		c.sendFailure(stream, err)
		return
	}
	c.send(Frame{Type: FrameQueryOK, Stream: stream,
		Payload: encodeQueryOK(queryOKPayload{version: version, rows: rows})})
}

// statsDoc is the STATS response document: the wire server's own counters
// beside the full store stats (which carry the per-query backpressure
// section).
type statsDoc struct {
	Wire  ServerStats `json:"wire"`
	Store live.Stats  `json:"store"`
}

func (c *conn) handleStats(stream uint32) {
	doc := statsDoc{Wire: c.srv.Stats(), Store: c.srv.svc.Stats()}
	data, err := json.Marshal(doc)
	if err != nil {
		c.sendError(stream, ErrCodeInternal, err.Error())
		return
	}
	c.send(Frame{Type: FrameStatsOK, Stream: stream, Payload: data})
}

// handleWatch admits the subscription, answers with the snapshot, then pumps
// NOTIFY frames against the client's credit until the stream ends. The pump
// is this goroutine; CREDIT and CANCEL frames reach it through the
// subscription (Grant) and the watch registry (cancel).
func (c *conn) handleWatch(stream uint32, payload []byte) {
	p, err := decodeWatch(payload)
	if err != nil {
		c.sendError(stream, ErrCodeBadRequest, err.Error())
		return
	}
	sub, snap, err := c.srv.svc.Subscribe(p.name, p.from, p.hasCursor)
	if err != nil {
		c.sendFailure(stream, err)
		return
	}
	// Credit gating starts before the first possible notification: the
	// subscription is parked from birth unless the WATCH carried credit.
	sub.EnableCredit(p.credit)
	c.srv.stats.watches.Add(1)
	wctx, wcancel := context.WithCancel(c.ctx)
	defer wcancel()
	c.mu.Lock()
	c.watches[stream] = &serverWatch{sub: sub, cancel: wcancel}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.watches, stream)
		c.mu.Unlock()
		sub.Cancel()
	}()

	// The snapshot is the version the stream's cursor was placed at, so
	// every NOTIFY after it is a later change. With a resumed cursor the
	// backlog is already queued behind the credit gate.
	c.send(Frame{Type: FrameWatchOK, Stream: stream, Payload: encodeWatchOK(snap)})
	for {
		n, ok := sub.Next(wctx)
		if !ok {
			break
		}
		c.srv.stats.notifies.Add(1)
		c.send(Frame{Type: FrameNotify, Stream: stream, Payload: EncodeNotification(&n)})
	}
	c.send(Frame{Type: FrameWatchEnd, Stream: stream})
}

// Package wire is d2cqd's binary protocol: a length-prefixed, CRC-checked,
// multiplexed frame stream over one TCP (or any net.Conn) connection,
// replacing HTTP/JSON + SSE with typed binary frames, token-authenticated
// handshakes, and credit-based flow control on watch streams.
//
// # Frame grammar
//
// Every frame is
//
//	[u32 length][u32 crc32(body)][body]
//	body = [u8 type][u32 stream][payload]
//
// little-endian throughout — the same shape as the write-ahead log's record
// framing (internal/wal), with the stream id taking the place of the LSN.
// The CRC covers the body; a frame failing the length bounds or the CRC is a
// protocol error that fails the connection (unlike the WAL, where a torn
// tail is expected and tolerated — a TCP stream has no torn tails, only
// corruption or desync, and resynchronising inside a binary stream is not
// worth the ambiguity).
//
// Payloads are built from the same self-delimiting primitives as the WAL
// payloads (storage.AppendUvarint / AppendString / Reader), so every decoder
// is total: arbitrary bytes produce an error, never a panic or an oversized
// allocation.
//
// # Streams
//
// Stream 0 is the connection control stream: the HELLO/HELLO_OK handshake
// and connection-fatal ERROR frames. Every request the client sends opens a
// new client-chosen stream id (strictly increasing); the server's response
// frames carry the same id. Unary exchanges (REGISTER, SUBMIT, QUERY, STATS)
// use one request and one response frame; WATCH opens a long-lived stream
// carrying NOTIFY frames from the server and CREDIT/CANCEL frames from the
// client until WATCH_END.
//
// # Credit flow
//
// A WATCH request carries an initial credit; every NOTIFY the server sends
// consumes one. At zero credit the server parks the stream — the underlying
// ring cursor holds its place, the park is visible in the store's
// backpressure stats — until a CREDIT frame adds more. Lag is therefore an
// explicit, client-controlled protocol state; only a client that also lets
// the ring overwrite its parked cursor (beyond the store's History) loses
// notifications, and that loss is surfaced in the NOTIFY's lagged count,
// exactly as over SSE.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Protocol constants. Version gates the handshake: a server refuses a HELLO
// whose version it does not speak, before anything else is parsed.
const (
	// Magic opens every HELLO payload: "this is the d2cq wire protocol at
	// all" is a first-bytes error, like the snapshot codec's magic.
	Magic   = "d2cqwire"
	Version = 1
)

// Frame types. Client→server unless noted.
const (
	FrameHello      = 0x01 // stream 0: Magic, version, token
	FrameHelloOK    = 0x02 // server; stream 0: version, max frame length
	FrameError      = 0x03 // server; code + message; on stream 0 it is connection-fatal
	FrameRegister   = 0x04 // name, query text
	FrameRegisterOK = 0x05 // server; vars, count, version
	FrameSubmit     = 0x06 // sync flag, storage.EncodeDelta payload
	FrameSubmitOK   = 0x07 // server; version, pending tuples
	FrameQuery      = 0x08 // name, limit — point-in-time solutions read
	FrameQueryOK    = 0x09 // server; version, rows
	FrameWatch      = 0x0a // name, optional from-cursor, initial credit
	FrameWatchOK    = 0x0b // server; resumed flag + snapshot (version, count, vars, lagged)
	FrameNotify     = 0x0c // server; one result-change notification (binary codec)
	FrameCredit     = 0x0d // n more notification credits for this watch stream
	FrameCancel     = 0x0e // end this watch stream (client side)
	FrameWatchEnd   = 0x0f // server; watch stream over, no more NOTIFYs
	FrameStats      = 0x10 // empty
	FrameStatsOK    = 0x11 // server; JSON stats document
)

// Framing sizes. MaxFrameLen bounds a single frame body; both sides enforce
// it on read (a corrupt length field fails fast, and the body is read past
// the reader's buffer size incrementally, so even a plausible-but-wrong
// length cannot commit the whole allocation up front) and on write (a
// notification overflowing it is a server bug surfaced as an ERROR, not a
// silently broken stream).
const (
	frameHeader = 8       // u32 length + u32 crc
	bodyHeader  = 5       // u8 type + u32 stream
	MaxFrameLen = 1 << 26 // 64 MiB body cap
)

// Frame is one decoded protocol frame.
type Frame struct {
	Type    byte
	Stream  uint32
	Payload []byte
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, f Frame) []byte {
	bodyLen := bodyHeader + len(f.Payload)
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholder
	dst = append(dst, f.Type)
	dst = binary.LittleEndian.AppendUint32(dst, f.Stream)
	dst = append(dst, f.Payload...)
	body := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(bodyLen))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(body))
	return dst
}

// ReadFrame decodes the next frame from r. Any violation — length out of
// bounds, CRC mismatch, truncation — is an error; the connection cannot be
// used afterwards. A body no longer than r's buffer (64 KiB on both ends of a
// connection) is read into one allocation of exactly its length; past that
// size the rest is read incrementally, so a corrupted length field commits at
// most the buffer size up front plus the bytes actually present, never the
// claimed length.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length < bodyHeader || length > MaxFrameLen {
		return Frame{}, fmt.Errorf("wire: frame length %d out of bounds [%d, %d]", length, bodyHeader, MaxFrameLen)
	}
	body := make([]byte, min(int(length), r.Size()))
	_, err := io.ReadFull(r, body)
	if err == nil && int(length) > len(body) {
		buf := bytes.NewBuffer(body)
		_, err = io.CopyN(buf, r, int64(length)-int64(len(body)))
		body = buf.Bytes()
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("wire: frame body: %w", err)
	}
	if crc32.ChecksumIEEE(body) != sum {
		return Frame{}, fmt.Errorf("wire: frame CRC mismatch")
	}
	return Frame{
		Type:    body[0],
		Stream:  binary.LittleEndian.Uint32(body[1:bodyHeader]),
		Payload: body[bodyHeader:],
	}, nil
}

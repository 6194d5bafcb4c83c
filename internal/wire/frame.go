// Package wire is the length-prefixed binary protocol spoken between
// `lobctl serve` and its clients. Every message — request or response — is one
// frame: a fixed 16-byte header followed by a payload of exactly the
// length the header declares.
//
// Header layout (little-endian):
//
//	off 0  version  (1 byte)  protocol version, currently 1
//	off 1  type     (1 byte)  request opcode or response code
//	off 2  flags    (2 bytes) FlagLast marks the final frame of a stream
//	off 4  reqID    (4 bytes) request id, echoed on every response frame
//	off 8  length   (4 bytes) payload bytes following the header
//	off 12 crc      (4 bytes) CRC-32 (IEEE) over header bytes [0,12)
//
// The CRC covers only the header: it is the cheap guard against
// desynchronized streams (a reader that lost framing decodes garbage
// lengths; the CRC catches it before a bogus length turns into a huge
// allocation). Payload integrity is TCP's job.
//
// Request ids make the protocol pipelined: a client may have many
// requests in flight on one connection, and the server is free to answer
// them in any order — each response frame carries the id of the request
// it answers, and a streamed response (a chunked read) spans several
// frames with the same id, the last one carrying FlagLast. A committer
// parked at a durability barrier therefore never head-of-line-blocks an
// independent read on the same socket.
//
// Decoding never trusts the peer with memory: a frame whose declared
// length exceeds the reader's configured maximum is rejected before any
// buffer is sized to it.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Version is the protocol version byte this package speaks.
const Version = 1

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 16

// MaxPayload is the largest payload either side accepts by default: big
// enough for a 1 MiB append plus the request envelope, small enough that
// a malicious length field cannot balloon memory.
const MaxPayload = 1<<20 + 512

// Flags.
const (
	// FlagLast marks the final frame of a streamed response. Single-frame
	// responses set it too.
	FlagLast uint16 = 1 << 0
)

// Request opcodes (type byte < 0x80).
const (
	OpPing   byte = 0x01 // empty payload; answered with OK
	OpCreate byte = 0x02 // CreateReq; answered with OK
	OpRead   byte = 0x03 // ReadReq; answered with a Data stream
	OpAppend byte = 0x04 // AppendReq; answered with OK
	OpInsert byte = 0x05 // InsertReq; answered with OK
	OpDelete byte = 0x06 // DeleteReq; answered with OK
	OpStat   byte = 0x07 // StatReq; answered with Stat
)

// Response codes (type byte >= 0x80).
const (
	RespOK   byte = 0x80 // OKResp payload: object size after the operation
	RespData byte = 0x81 // raw object bytes; one frame per chunk
	RespStat byte = 0x82 // StatResp payload
	RespErr  byte = 0x83 // ErrResp payload; always carries FlagLast
)

// Protocol errors, all errors.Is-able through the %w chains decoders
// return.
var (
	// ErrVersion reports a frame with an unknown protocol version byte.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrCRC reports a header whose checksum does not match — a
	// desynchronized or corrupted stream.
	ErrCRC = errors.New("wire: header CRC mismatch")
	// ErrTooLarge reports a frame whose declared payload length exceeds
	// the reader's maximum. The payload is never read, let alone buffered.
	ErrTooLarge = errors.New("wire: frame payload exceeds maximum")
	// ErrTruncated reports a payload shorter than its fixed fields
	// require.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrBadType reports an unknown frame type byte.
	ErrBadType = errors.New("wire: unknown frame type")
)

// Header is one decoded frame header.
type Header struct {
	Type  byte
	Flags uint16
	ReqID uint32
	Len   uint32
}

// Last reports whether the frame carries FlagLast.
func (h Header) Last() bool { return h.Flags&FlagLast != 0 }

// PutHeader encodes h into dst, which must hold HeaderSize bytes, and
// stamps the version byte and header CRC.
func PutHeader(dst []byte, h Header) {
	_ = dst[HeaderSize-1]
	dst[0] = Version
	dst[1] = h.Type
	binary.LittleEndian.PutUint16(dst[2:], h.Flags)
	binary.LittleEndian.PutUint32(dst[4:], h.ReqID)
	binary.LittleEndian.PutUint32(dst[8:], h.Len)
	binary.LittleEndian.PutUint32(dst[12:], crc32.ChecksumIEEE(dst[:12]))
}

// ParseHeader decodes and validates a header: version byte first, then
// the CRC, so a desynchronized stream fails before its garbage length is
// believed. Length-versus-maximum is the reader's check, not this one —
// different endpoints legitimately accept different maxima.
func ParseHeader(src []byte) (Header, error) {
	if len(src) < HeaderSize {
		return Header{}, fmt.Errorf("wire: header: %w", io.ErrUnexpectedEOF)
	}
	if src[0] != Version {
		return Header{}, fmt.Errorf("wire: version %d: %w", src[0], ErrVersion)
	}
	if got, want := crc32.ChecksumIEEE(src[:12]), binary.LittleEndian.Uint32(src[12:]); got != want {
		return Header{}, fmt.Errorf("wire: header crc %08x, want %08x: %w", got, want, ErrCRC)
	}
	return Header{
		Type:  src[1],
		Flags: binary.LittleEndian.Uint16(src[2:]),
		ReqID: binary.LittleEndian.Uint32(src[4:]),
		Len:   binary.LittleEndian.Uint32(src[8:]),
	}, nil
}

// Reader decodes frames from a stream. It owns a small header scratch
// buffer; payload buffers are the caller's, so a steady-state loop that
// recycles its buffers reads frames without allocating.
type Reader struct {
	br  *bufio.Reader
	max uint32
	hdr [HeaderSize]byte
}

// NewReader returns a frame reader over r. maxPayload caps the declared
// payload length this reader will accept; zero selects MaxPayload.
func NewReader(r io.Reader, maxPayload int) *Reader {
	if maxPayload <= 0 {
		maxPayload = MaxPayload
	}
	return &Reader{br: bufio.NewReaderSize(r, 64<<10), max: uint32(maxPayload)}
}

// Next reads and validates the next frame header. A declared length over
// the reader's maximum returns ErrTooLarge without consuming the payload.
// io.EOF is returned clean only between frames.
func (r *Reader) Next() (Header, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Header{}, fmt.Errorf("wire: header: %w", io.ErrUnexpectedEOF)
		}
		return Header{}, err
	}
	h, err := ParseHeader(r.hdr[:])
	if err != nil {
		return Header{}, err
	}
	if h.Len > r.max {
		return Header{}, fmt.Errorf("wire: frame of %d bytes (max %d): %w", h.Len, r.max, ErrTooLarge)
	}
	return h, nil
}

// Payload reads the h.Len payload bytes of the frame whose header Next
// just returned. buf is reused when its capacity suffices; the returned
// slice is exactly the payload.
func (r *Reader) Payload(h Header, buf []byte) ([]byte, error) {
	n := int(h.Len)
	if n == 0 {
		return buf[:0], nil
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: payload of %d bytes: %w", n, err)
	}
	return buf, nil
}

// Discard skips the payload of a frame the caller does not want.
func (r *Reader) Discard(h Header) error {
	if _, err := r.br.Discard(int(h.Len)); err != nil {
		return fmt.Errorf("wire: discard payload: %w", err)
	}
	return nil
}

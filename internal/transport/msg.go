// Package transport is Squall's network plane: length-prefixed messages over
// TCP carrying the engine's packed wire frames between worker processes.
//
// The package is deliberately below the dataflow layer: it knows nothing
// about topologies or envelopes, only about framed messages, the session
// handshake that pins a connection to a (run, worker) pair, and the
// credit-based flow control the dataflow edge transport uses instead of
// channel blocking. One Conn multiplexes every edge between two processes;
// writes are serialized, reads happen on a single owner goroutine.
package transport

import (
	"encoding/binary"
	"fmt"
)

// Msg is one framed message. Kind dispatches it; Stream and A..D are small
// routing fields every message shape needs (producer component, destination
// node/task, sequence numbers, credit counts); Payload is the opaque body —
// for data messages, a wire batch frame shipped without re-encoding.
//
// Kinds below KindUser belong to the dataflow edge transport; KindUser and
// above are passed through to the session layer.
type Msg struct {
	Kind       byte
	Stream     string
	A, B, C, D int64
	Payload    []byte
}

// KindUser is the first message kind reserved for the session layer above
// the dataflow plane (job specs, readiness, completion reports).
const KindUser byte = 64

// MaxMsgSize bounds one framed message (length prefix excluded). Frames are
// producer batches — a few KiB at default batch sizes — so anything near this
// limit is a corrupt or malicious peer, not a legitimate payload.
const MaxMsgSize = 64 << 20

// appendMsg encodes m after dst: u32le total length, then kind, stream
// (uvarint length + bytes), A..D as zigzag varints, then the payload.
func appendMsg(dst []byte, m *Msg) ([]byte, error) {
	if len(m.Stream) > 1<<16 {
		return dst, fmt.Errorf("transport: stream name %d bytes", len(m.Stream))
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length placeholder
	dst = append(dst, m.Kind)
	dst = binary.AppendUvarint(dst, uint64(len(m.Stream)))
	dst = append(dst, m.Stream...)
	dst = binary.AppendVarint(dst, m.A)
	dst = binary.AppendVarint(dst, m.B)
	dst = binary.AppendVarint(dst, m.C)
	dst = binary.AppendVarint(dst, m.D)
	dst = append(dst, m.Payload...)
	n := len(dst) - start - 4
	if n > MaxMsgSize {
		return dst[:start], fmt.Errorf("transport: message %d bytes exceeds limit %d", n, MaxMsgSize)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// parseMsg decodes one message body (the bytes after the length prefix) into
// m. Payload aliases body, so it is only valid until the read buffer is
// reused; Stream is a copy, kept from the previous message when its bytes
// are equal, so a reader that reuses one Msg allocates no string per
// message of a stream.
func parseMsg(body []byte, m *Msg) error {
	if len(body) < 1 {
		return fmt.Errorf("transport: empty message")
	}
	m.Kind = body[0]
	pos := 1
	sl, n := binary.Uvarint(body[pos:])
	if n <= 0 || sl > uint64(len(body)-pos-n) {
		return fmt.Errorf("transport: bad stream length")
	}
	pos += n
	if b := body[pos : pos+int(sl)]; string(b) != m.Stream {
		m.Stream = string(b)
	}
	pos += int(sl)
	for _, f := range []*int64{&m.A, &m.B, &m.C, &m.D} {
		v, n := binary.Varint(body[pos:])
		if n <= 0 {
			return fmt.Errorf("transport: bad varint field")
		}
		*f = v
		pos += n
	}
	m.Payload = body[pos:]
	return nil
}

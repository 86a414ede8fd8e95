package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// protoMagic and protoVersion pin the handshake: a connection from anything
// that is not a compatible squall process fails fast instead of feeding
// garbage into the frame path.
const (
	protoMagic   int64 = 0x5351554c // "SQUL"
	protoVersion int64 = 1
)

// kindHello is the handshake message, always the first message on a
// connection in each direction. kindPing is the transport-level heartbeat:
// it is swallowed inside ReadMsg and never surfaces to any layer above, so
// any message kind scheme built on top of the transport stays unaware of it.
const (
	kindHello byte = 1
	kindPing  byte = 63
)

// Purpose of a connection, carried in the hello.
const (
	PurposeJob   = 1 // coordinator -> worker: job control + data link
	PurposePeer  = 2 // worker -> worker: data link between two workers
	PurposeProbe = 3 // liveness probe: handshake only, closed immediately
)

// Hello identifies the dialing process to the accepting one. Epoch is the
// link epoch of the run attempt the dialer belongs to — an accepting worker
// rejects hellos whose epoch is older than the newest it has seen for the
// same base run, so a stale reconnect (or a wandering connection from an
// aborted attempt) cannot join a newer attempt's session. HB carries the
// dialer's heartbeat parameters so both ends of the link arm the same
// detection window.
type Hello struct {
	RunID   string
	From    int // worker index of the dialer (coordinator is 0)
	Purpose int
	Epoch   int
	HB      Heartbeat
}

// Heartbeat configures transport-level failure detection on one connection:
// a ping is written every Interval, and a blocked read fails with ErrPeerLost
// after Interval*Miss without any inbound traffic (pings count — liveness is
// "the peer's process is writing", not "the application is chatty"). The
// zero value disables detection.
type Heartbeat struct {
	Interval time.Duration
	Miss     int // missed intervals before the peer is declared lost (default 3)
}

// Window is the no-traffic duration after which the peer is declared lost.
func (hb Heartbeat) Window() time.Duration {
	if hb.Interval <= 0 {
		return 0
	}
	miss := hb.Miss
	if miss <= 0 {
		miss = 3
	}
	return hb.Interval * time.Duration(miss)
}

// ErrPeerLost marks a read that failed because the heartbeat window elapsed
// with no inbound traffic: the peer process is dead, wedged, or partitioned
// away — not merely slow to produce application messages.
var ErrPeerLost = errors.New("transport: peer lost (heartbeat window elapsed)")

// Conn is one bidirectional message link between two processes. Writes are
// safe from any goroutine (serialized by a mutex, each message written to the
// socket whole so control messages are never stuck behind a buffer); reads
// must happen from a single owner goroutine.
type Conn struct {
	c  net.Conn
	br *bufio.Reader

	wmu  sync.Mutex
	wbuf []byte
	werr error

	rbuf []byte
	lenb [4]byte // the read loop's length prefix, kept off the heap per message
	// rdArmed tracks whether the previous ReadMsg left a deadline on the
	// socket (single-reader state, no lock needed).
	rdArmed bool

	hbWindow  atomic.Int64 // detection window in ns; 0 = heartbeat off
	hbStop    chan struct{}
	hbOnce    sync.Once
	closeOnce sync.Once
	lastRead  atomic.Int64 // unix ns of the last successful inbound message
	userRD    atomic.Int64 // caller read deadline (unix ns); 0 = none
}

// NewConn wraps an accepted or dialed net.Conn. The handshake is not
// performed here; use SendHello/ReadHello.
func NewConn(c net.Conn) *Conn {
	cn := &Conn{
		c:      c,
		br:     bufio.NewReaderSize(c, 64<<10),
		hbStop: make(chan struct{}),
	}
	cn.lastRead.Store(time.Now().UnixNano())
	return cn
}

// SendHello writes the handshake message. Epoch and heartbeat parameters
// ride in the payload as uvarints; an empty payload decodes as zeros, so
// older peers interoperate.
func (c *Conn) SendHello(h Hello) error {
	var payload []byte
	if h.Epoch != 0 || h.HB.Interval != 0 || h.HB.Miss != 0 {
		payload = binary.AppendUvarint(payload, uint64(h.Epoch))
		payload = binary.AppendUvarint(payload, uint64(h.HB.Interval))
		payload = binary.AppendUvarint(payload, uint64(h.HB.Miss))
	}
	return c.WriteMsg(&Msg{
		Kind:    kindHello,
		Stream:  h.RunID,
		A:       int64(h.From),
		B:       int64(h.Purpose),
		C:       protoVersion,
		D:       protoMagic,
		Payload: payload,
	})
}

// ReadHello reads and validates the handshake message. deadline bounds the
// wait so a stray connection cannot pin an accept loop.
func (c *Conn) ReadHello(deadline time.Duration) (Hello, error) {
	if deadline > 0 {
		c.c.SetReadDeadline(time.Now().Add(deadline))
		defer c.c.SetReadDeadline(time.Time{})
	}
	var m Msg
	if err := c.ReadMsg(&m); err != nil {
		return Hello{}, err
	}
	if m.Kind != kindHello || m.D != protoMagic {
		return Hello{}, fmt.Errorf("transport: not a squall handshake")
	}
	if m.C != protoVersion {
		return Hello{}, fmt.Errorf("transport: protocol version %d, want %d", m.C, protoVersion)
	}
	h := Hello{RunID: m.Stream, From: int(m.A), Purpose: int(m.B)}
	if len(m.Payload) > 0 {
		buf := m.Payload
		var vals [3]uint64
		for i := range vals {
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return Hello{}, fmt.Errorf("transport: bad hello extension")
			}
			vals[i] = v
			buf = buf[n:]
		}
		h.Epoch = int(vals[0])
		h.HB = Heartbeat{Interval: time.Duration(vals[1]), Miss: int(vals[2])}
	}
	return h, nil
}

// StartHeartbeat arms failure detection on the connection: a pinger
// goroutine writes a transport ping every hb.Interval, and from now on a
// blocked ReadMsg fails with ErrPeerLost once hb.Window() passes with no
// inbound traffic. Call at most once, after the handshake; a zero Interval
// is a no-op. The pinger exits when the connection closes or a write fails.
func (c *Conn) StartHeartbeat(hb Heartbeat) {
	if hb.Interval <= 0 {
		return
	}
	c.hbOnce.Do(func() {
		c.hbWindow.Store(int64(hb.Window()))
		go c.pinger(hb.Interval)
	})
}

// HeartbeatWindow reports the armed detection window (0 when disabled).
func (c *Conn) HeartbeatWindow() time.Duration {
	return time.Duration(c.hbWindow.Load())
}

// LastRead is when the last inbound message (pings included) arrived — the
// raw signal behind readiness reporting.
func (c *Conn) LastRead() time.Time {
	return time.Unix(0, c.lastRead.Load())
}

// SetReadDeadline bounds subsequent ReadMsg calls from the session layer.
// The zero time clears it. Unlike a raw socket deadline it composes with the
// heartbeat window: whichever expires first fires, and only the heartbeat
// produces ErrPeerLost.
func (c *Conn) SetReadDeadline(t time.Time) {
	if t.IsZero() {
		c.userRD.Store(0)
		return
	}
	c.userRD.Store(t.UnixNano())
}

func (c *Conn) pinger(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if c.WriteMsg(&Msg{Kind: kindPing}) != nil {
				return
			}
		case <-c.hbStop:
			return
		}
	}
}

// WriteMsg encodes m into the connection's write buffer and writes it to the
// socket before returning. It is safe for concurrent use; once a write fails
// the connection is poisoned and every later write returns the same error.
// With a heartbeat armed, the write is bounded by the detection window so a
// wedged peer cannot pin a writer forever.
func (c *Conn) WriteMsg(m *Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	buf, err := appendMsg(c.wbuf[:0], m)
	if err != nil {
		return err
	}
	c.wbuf = buf[:0]
	if win := c.hbWindow.Load(); win > 0 {
		c.c.SetWriteDeadline(time.Now().Add(time.Duration(win)))
	}
	if _, err := c.c.Write(buf); err != nil {
		c.werr = err
	}
	return c.werr
}

// ReadMsg reads the next message into m. m.Payload aliases the
// connection's read buffer and is only valid until the next ReadMsg call —
// the caller copies what it keeps; m.Stream is a string the next call
// keeps when the stream repeats. Not safe for concurrent use.
//
// Transport pings are consumed here and never returned. When a heartbeat is
// armed the read fails with ErrPeerLost after a full detection window with
// no inbound traffic; a deadline set via SetReadDeadline fails with an
// ordinary timeout error instead.
func (c *Conn) ReadMsg(m *Msg) error {
	for {
		win := time.Duration(c.hbWindow.Load())
		user := c.userRD.Load()
		var dl time.Time
		if win > 0 {
			dl = time.Now().Add(win)
		}
		if user != 0 {
			if u := time.Unix(0, user); dl.IsZero() || u.Before(dl) {
				dl = u
			}
		}
		if !dl.IsZero() || c.rdArmed {
			c.c.SetReadDeadline(dl)
			c.rdArmed = !dl.IsZero()
		}
		if err := c.readFrame(m); err != nil {
			if win > 0 && isTimeout(err) && (user == 0 || time.Now().UnixNano() < user) {
				return fmt.Errorf("%w: no traffic for %v from %v", ErrPeerLost, win, c.RemoteAddr())
			}
			return err
		}
		c.lastRead.Store(time.Now().UnixNano())
		if m.Kind == kindPing {
			continue
		}
		return nil
	}
}

// readFrame reads one raw frame off the socket into m.
func (c *Conn) readFrame(m *Msg) error {
	if _, err := io.ReadFull(c.br, c.lenb[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(c.lenb[:])
	if n == 0 || n > MaxMsgSize {
		return fmt.Errorf("transport: message length %d out of range", n)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	body := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, body); err != nil {
		return err
	}
	return parseMsg(body, m)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Close tears down the underlying socket and stops the heartbeat pinger.
// Any blocked read or write fails.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.hbStop) })
	return c.c.Close()
}

// RemoteAddr exposes the peer address for diagnostics.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := lis.Accept()
		ch <- res{c, err}
	}()
	cl, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	a, b := NewConn(cl), NewConn(r.c)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestMsgRoundTrip(t *testing.T) {
	a, b := pipePair(t)
	msgs := []Msg{
		{Kind: 2, Stream: "orders", A: 3, B: -17, C: 0, D: 1 << 40, Payload: []byte("hello frame")},
		{Kind: 6, A: -1, B: 0, C: 128},
		{Kind: KindUser + 1, Stream: "", Payload: bytes.Repeat([]byte{0xab}, 100_000)},
		{Kind: 5, Stream: "x"},
	}
	go func() {
		for i := range msgs {
			if err := a.WriteMsg(&msgs[i]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var got Msg
	for i := range msgs {
		if err := b.ReadMsg(&got); err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		w := msgs[i]
		if got.Kind != w.Kind || got.Stream != w.Stream ||
			got.A != w.A || got.B != w.B || got.C != w.C || got.D != w.D ||
			!bytes.Equal(got.Payload, w.Payload) {
			t.Fatalf("msg %d: got %+v want %+v", i, got, w)
		}
	}
}

func TestHelloHandshake(t *testing.T) {
	a, b := pipePair(t)
	want := Hello{RunID: "run-42", From: 3, Purpose: PurposePeer}
	if err := a.SendHello(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadHello(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("hello: got %+v want %+v", got, want)
	}
}

func TestHelloRejectsGarbage(t *testing.T) {
	a, b := pipePair(t)
	// A non-hello message must be rejected by ReadHello.
	if err := a.WriteMsg(&Msg{Kind: 9, A: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadHello(time.Second); err == nil {
		t.Fatal("ReadHello accepted a non-handshake message")
	}
}

func TestOversizeLengthRejected(t *testing.T) {
	a, b := pipePair(t)
	// Raw length prefix past MaxMsgSize must fail the read, not allocate.
	raw := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := a.c.Write(raw); err != nil {
		t.Fatal(err)
	}
	var m Msg
	if err := b.ReadMsg(&m); err == nil {
		t.Fatal("ReadMsg accepted an oversized length prefix")
	}
}

func TestConcurrentWriters(t *testing.T) {
	a, b := pipePair(t)
	const writers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m := Msg{Kind: 2, Stream: fmt.Sprintf("s%d", w), A: int64(w), D: int64(i), Payload: []byte{byte(w), byte(i)}}
				if err := a.WriteMsg(&m); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	seen := make([]int64, writers)
	var m Msg
	for n := 0; n < writers*per; n++ {
		if err := b.ReadMsg(&m); err != nil {
			t.Fatal(err)
		}
		w := int(m.A)
		// Per-writer order must be preserved even though writers interleave.
		if m.D != seen[w] {
			t.Fatalf("writer %d: seq %d arrived after %d", w, m.D, seen[w])
		}
		seen[w]++
	}
	<-done
}

func TestCreditGate(t *testing.T) {
	c := NewCredit(2)
	cancel := make(chan struct{})
	if !c.Acquire(cancel) || !c.Acquire(cancel) {
		t.Fatal("initial credits not available")
	}
	acquired := make(chan struct{})
	go func() {
		if c.Acquire(cancel) {
			close(acquired)
		}
	}()
	select {
	case <-acquired:
		t.Fatal("Acquire succeeded with zero credits")
	case <-time.After(20 * time.Millisecond):
	}
	c.Grant(1)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("Acquire did not wake on Grant")
	}
	// Cancellation unblocks a waiter with no credit.
	got := make(chan bool, 1)
	go func() { got <- c.Acquire(cancel) }()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case ok := <-got:
		if ok {
			t.Fatal("cancelled Acquire reported success")
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled Acquire did not return")
	}
}

// replayConn serves one encoded message over and over, so ReadMsg can be
// measured with nothing else allocating.
type replayConn struct {
	net.Conn
	frame []byte
	off   int
}

func (c *replayConn) Read(b []byte) (int, error) {
	n := 0
	for n < len(b) {
		k := copy(b[n:], c.frame[c.off:])
		n += k
		c.off = (c.off + k) % len(c.frame)
	}
	return n, nil
}

// TestReadMsgKeepsRepeatedStream: a reader that reuses one Msg, as a link's
// read loop does, allocates no more for messages that repeat a 4-byte
// stream name than for messages with none — the stream string is kept, not
// copied again per message.
func TestReadMsgKeepsRepeatedStream(t *testing.T) {
	allocs := func(stream string) float64 {
		frame, err := appendMsg(nil, &Msg{Kind: 2, Stream: stream, A: 1, B: 2, Payload: []byte("frame bytes")})
		if err != nil {
			t.Fatal(err)
		}
		c := NewConn(&replayConn{frame: frame})
		var m Msg
		read := func() {
			if err := c.ReadMsg(&m); err != nil {
				t.Fatal(err)
			}
			if m.Stream != stream || string(m.Payload) != "frame bytes" {
				t.Fatalf("read stream %q payload %q", m.Stream, m.Payload)
			}
		}
		read() // the first message of a stream copies its name
		return testing.AllocsPerRun(200, read)
	}
	none, named := allocs(""), allocs("join")
	if named > none {
		t.Errorf("ReadMsg allocates %.1f objects per message with a repeated stream, %.1f with none", named, none)
	}
}

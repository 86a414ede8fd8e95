package transport

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestHelloEpochRoundTrip(t *testing.T) {
	a, b := pipePair(t)
	want := Hello{
		RunID: "run-7", From: 2, Purpose: PurposePeer,
		Epoch: 5, HB: Heartbeat{Interval: 250 * time.Millisecond, Miss: 4},
	}
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
	// A legacy hello without the extension payload decodes as zeros.
	if err := a.WriteMsg(&Msg{Kind: kindHello, Stream: "old", C: protoVersion, D: protoMagic}); err != nil {
		t.Fatal(err)
	}
	got, err = b.ReadHello(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 0 || got.HB != (Heartbeat{}) {
		t.Fatalf("legacy hello decoded extension fields: %+v", got)
	}
}

// A silent peer must be declared lost within the heartbeat window — not at
// the next write, and not never.
func TestHeartbeatDeclaresSilentPeer(t *testing.T) {
	a, _ := pipePair(t)
	hb := Heartbeat{Interval: 20 * time.Millisecond, Miss: 3}
	a.StartHeartbeat(hb)
	start := time.Now()
	var m Msg
	err := a.ReadMsg(&m)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("read on a silent link: err=%v, want ErrPeerLost", err)
	}
	if elapsed < hb.Window()-5*time.Millisecond {
		t.Fatalf("declared lost after %v, before the %v window", elapsed, hb.Window())
	}
	if elapsed > 10*hb.Window() {
		t.Fatalf("declaration took %v, want bounded near the %v window", elapsed, hb.Window())
	}
}

// Pings from a live-but-idle peer must keep the link alive well past the
// detection window, and a session deadline must surface as a plain timeout,
// not a false peer-loss.
func TestHeartbeatKeepsIdleLinkAlive(t *testing.T) {
	a, b := pipePair(t)
	hb := Heartbeat{Interval: 10 * time.Millisecond, Miss: 3}
	a.StartHeartbeat(hb)
	b.StartHeartbeat(hb)
	wait := 6 * hb.Window()
	a.SetReadDeadline(time.Now().Add(wait))
	defer a.SetReadDeadline(time.Time{})
	start := time.Now()
	var m Msg
	err := a.ReadMsg(&m)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("read returned a message on an idle link: %+v", m)
	}
	if errors.Is(err, ErrPeerLost) {
		t.Fatalf("idle-but-pinging peer declared lost after %v: %v", elapsed, err)
	}
	if elapsed < wait-5*time.Millisecond {
		t.Fatalf("session deadline fired after %v, want ~%v", elapsed, wait)
	}
	// The link still works: deadline cleared, a real message gets through.
	a.SetReadDeadline(time.Time{})
	if err := b.WriteMsg(&Msg{Kind: KindUser, A: 9}); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadMsg(&m); err != nil || m.A != 9 {
		t.Fatalf("post-timeout read: %v %+v", err, m)
	}
}

func TestDialRetryBudgetSurfacesLastError(t *testing.T) {
	// Reserve an address nobody listens on.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	rp := RetryPolicy{Attempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, DialTimeout: time.Second}
	start := time.Now()
	_, err = DialRetry(addr, Hello{RunID: "r", Purpose: PurposeJob}, rp, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("DialRetry to a dead address succeeded")
	}
	if !strings.Contains(err.Error(), "3 attempt(s) exhausted") {
		t.Fatalf("budget not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "refused") {
		t.Fatalf("last dial error not surfaced: %v", err)
	}
	// Backoffs between 3 attempts: at least 0.75*(5+10)ms.
	if elapsed < 11*time.Millisecond {
		t.Fatalf("no backoff observed: %v for 3 attempts", elapsed)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	rp := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 42}
	for a := 1; a <= 8; a++ {
		d1, d2 := rp.Backoff(a), rp.Backoff(a)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", a, d1, d2)
		}
		base := rp.BaseDelay << (a - 1)
		if base > rp.MaxDelay {
			base = rp.MaxDelay
		}
		lo := time.Duration(float64(base) * 0.75)
		hi := time.Duration(float64(base) * 1.25)
		if d1 < lo || d1 > hi {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", a, d1, lo, hi)
		}
	}
	other := rp
	other.Seed = 43
	same := true
	for a := 1; a <= 8; a++ {
		if rp.Backoff(a) != other.Backoff(a) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced an identical jitter schedule")
	}
}

// countConn records writes so fault decisions are observable.
type countConn struct {
	net.Conn
	calls int
	bytes int
}

func (c *countConn) Write(b []byte) (int, error) {
	c.calls++
	c.bytes += len(b)
	return len(b), nil
}

func newCountConn() *countConn { return &countConn{} }

func faultTrace(t *testing.T, spec *FaultSpec, writes int) []string {
	t.Helper()
	fc, ok := spec.Wrap(newCountConn()).(*FaultConn)
	if !ok {
		t.Fatal("Wrap did not fault the first connection")
	}
	for i := 0; i < writes; i++ {
		if _, err := fc.Write(make([]byte, 16+i%48)); err != nil {
			t.Fatal(err)
		}
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return append([]string(nil), fc.trace...)
}

func TestFaultConnDeterministic(t *testing.T) {
	mk := func(seed int64) *FaultSpec {
		return &FaultSpec{Seed: seed, DropProb: 0.2, DupProb: 0.1, TearProb: 0.1, DelayProb: 0.05, Delay: time.Microsecond}
	}
	t1 := faultTrace(t, mk(7), 200)
	t2 := faultTrace(t, mk(7), 200)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("same seed produced different fault schedules")
	}
	t3 := faultTrace(t, mk(8), 200)
	if reflect.DeepEqual(t1, t3) {
		t.Fatal("different seeds produced an identical 200-write schedule")
	}
	faulty := 0
	for _, e := range t1 {
		if !strings.HasSuffix(e, ":pass") {
			faulty++
		}
	}
	if faulty == 0 {
		t.Fatal("no faults injected at ~45% combined probability over 200 writes")
	}
}

func TestFaultConnPartitionAndTargeting(t *testing.T) {
	spec := &FaultSpec{Seed: 1, PartitionAfter: 5, SkipConns: 1, MaxConns: 1}
	// Ordinal 0 is skipped: passthrough.
	if _, faulted := spec.Wrap(newCountConn()).(*FaultConn); faulted {
		t.Fatal("ordinal 0 faulted despite SkipConns=1")
	}
	// Ordinal 1 is in range: partitioned after 5 writes.
	under := newCountConn()
	fc := spec.Wrap(under).(*FaultConn)
	for i := 0; i < 12; i++ {
		if n, err := fc.Write([]byte("abcdefgh")); err != nil || n != 8 {
			t.Fatalf("write %d: n=%d err=%v", i, n, err)
		}
	}
	if under.calls != 5 {
		t.Fatalf("underlying conn saw %d writes, want 5 before the partition", under.calls)
	}
	// Ordinal 2 is past MaxConns: passthrough again.
	if _, faulted := spec.Wrap(newCountConn()).(*FaultConn); faulted {
		t.Fatal("ordinal 2 faulted despite MaxConns=1")
	}
}

package wire

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"squall/internal/types"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []types.Tuple{
		{},
		{types.Null()},
		{types.Int(0)},
		{types.Int(-1), types.Int(math.MaxInt64), types.Int(math.MinInt64)},
		{types.Float(3.14159), types.Float(math.Inf(1)), types.Float(0)},
		{types.Str(""), types.Str("hello|world"), types.Str("日本語")},
		{types.Int(5), types.Str("mix"), types.Float(-2.5), types.Null()},
	}
	for _, orig := range cases {
		buf := Encode(nil, orig)
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%v): %v", orig, err)
		}
		if n != len(buf) {
			t.Errorf("Decode consumed %d of %d bytes", n, len(buf))
		}
		if got.Compare(orig) != 0 {
			t.Errorf("round trip %v -> %v", orig, got)
		}
	}
}

func TestDecodeNaN(t *testing.T) {
	buf := Encode(nil, types.Tuple{types.Float(math.NaN())})
	got, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got[0].F) {
		t.Error("NaN must survive the wire")
	}
}

func TestDecodeErrorsOnTruncation(t *testing.T) {
	buf := Encode(nil, types.Tuple{types.Str("abcdef"), types.Int(12345)})
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := Decode(buf[:cut]); err == nil {
			// Truncations that still parse as a shorter valid prefix are
			// impossible here because arity is fixed in the header.
			t.Errorf("Decode of %d/%d bytes should fail", cut, len(buf))
		}
	}
}

func TestDecodeErrorsOnGarbage(t *testing.T) {
	if _, _, err := Decode([]byte{}); err == nil {
		t.Error("empty buffer must fail")
	}
	if _, _, err := Decode([]byte{1, 99}); err == nil {
		t.Error("unknown kind must fail")
	}
}

func TestRoundTripProducesFreshTuple(t *testing.T) {
	orig := types.Tuple{types.Str("shared")}
	got, _, n, err := RoundTrip(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Error("byte count must be positive")
	}
	if got.Compare(orig) != 0 {
		t.Errorf("RoundTrip = %v", got)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(ints []int64, strs []string, f64 float64) bool {
		tu := types.Tuple{}
		for _, v := range ints {
			tu = append(tu, types.Int(v))
		}
		for _, s := range strs {
			tu = append(tu, types.Str(s))
		}
		tu = append(tu, types.Float(f64))
		if math.IsNaN(f64) {
			return true // NaN != NaN under Equal; covered separately
		}
		got, _, _, err := RoundTrip(tu, nil)
		return err == nil && got.Compare(tu) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func sampleBatch(n int) []types.Tuple {
	batch := make([]types.Tuple, n)
	for i := range batch {
		batch[i] = types.Tuple{
			types.Int(int64(i * 1001)),
			types.Str("1996-01-02"),
			types.Float(float64(i) + 0.25),
			types.Str("BUILDING"),
		}
	}
	return batch
}

func TestEncodeDecodeBatchRoundTrip(t *testing.T) {
	cases := [][]types.Tuple{
		{},
		{{}},
		{{types.Int(1)}},
		sampleBatch(3),
		sampleBatch(100),
		{{types.Null()}, {}, {types.Str("x"), types.Int(-7)}, {types.Float(2.5)}},
	}
	for _, batch := range cases {
		buf := EncodeBatch(nil, batch)
		got, n, err := DecodeBatch(buf)
		if err != nil {
			t.Fatalf("DecodeBatch(%v): %v", batch, err)
		}
		if n != len(buf) {
			t.Errorf("DecodeBatch consumed %d of %d bytes", n, len(buf))
		}
		if len(got) != len(batch) {
			t.Fatalf("batch round trip: %d tuples, want %d", len(got), len(batch))
		}
		for i := range batch {
			if got[i].Compare(batch[i]) != 0 {
				t.Errorf("batch tuple %d: %v -> %v", i, batch[i], got[i])
			}
		}
	}
}

// Batched frames must cost the same wire bytes as the per-tuple frames they
// replace, plus only the count prefix — the network-volume substitution
// (DESIGN.md) depends on it.
func TestBatchFramingOverheadIsCountPrefixOnly(t *testing.T) {
	batch := sampleBatch(64)
	var perTuple int
	for _, tu := range batch {
		perTuple += len(Encode(nil, tu))
	}
	frame := EncodeBatch(nil, batch)
	if got, want := len(frame)-perTuple, 1; got != want { // varint(64) = 1 byte
		t.Errorf("frame overhead = %d bytes, want %d", got, want)
	}
}

func TestDecodeBatchTuplesDoNotAlias(t *testing.T) {
	// Appending to one decoded tuple must not clobber its arena neighbour.
	buf := EncodeBatch(nil, []types.Tuple{{types.Int(1)}, {types.Int(2)}})
	got, _, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got[0], types.Int(99))
	if got[1][0].I != 2 {
		t.Errorf("tuple 1 corrupted by append to tuple 0: %v", got[1])
	}
}

func TestDecodeBatchErrors(t *testing.T) {
	if _, _, err := DecodeBatch(nil); err == nil {
		t.Error("empty buffer must fail")
	}
	if _, _, err := DecodeBatch([]byte{200}); err == nil {
		t.Error("truncated count varint must fail")
	}
	if _, _, err := DecodeBatch([]byte{5, 0}); err == nil {
		t.Error("count exceeding buffer must fail")
	}
	buf := EncodeBatch(nil, sampleBatch(4))
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := DecodeBatch(buf[:cut]); err == nil {
			t.Errorf("DecodeBatch of %d/%d bytes should fail", cut, len(buf))
		}
	}
}

func TestDecodeArityBoundUsesRemainingBytes(t *testing.T) {
	// Header claims 3 values but only 2 bytes follow the 1-byte header: the
	// arity bound must compare against remaining bytes, not the whole buffer.
	if _, _, err := Decode([]byte{3, byte(types.KindNull), byte(types.KindNull)}); err == nil {
		t.Error("arity exceeding remaining bytes must fail")
	}
	// Exactly enough remaining bytes still decodes.
	got, _, err := Decode([]byte{3, byte(types.KindNull), byte(types.KindNull), byte(types.KindNull)})
	if err != nil || len(got) != 3 {
		t.Errorf("3 nulls should decode, got %v, %v", got, err)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	tu := types.Tuple{types.Int(123456), types.Str("1996-01-02"), types.Float(17.25), types.Str("BUILDING")}
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		_, scratch, _, err = RoundTrip(tu, scratch)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeDecodeBatch measures the amortized per-hop cost of a
// 64-tuple frame; compare ns/op and allocs/op against 64x the per-tuple
// numbers of BenchmarkEncodeDecode.
func BenchmarkEncodeDecodeBatch(b *testing.B) {
	batch := sampleBatch(64)
	var scratch []byte
	var dec BatchDecoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scratch = EncodeBatch(scratch[:0], batch)
		if _, _, err := dec.Decode(scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// RoundTrip encodes and immediately decodes a tuple, one network hop: the
// returned tuple is a fresh copy, and the byte count is the hop's volume.
func RoundTrip(t types.Tuple, scratch []byte) (types.Tuple, []byte, int, error) {
	buf := Encode(scratch[:0], t)
	out, _, err := Decode(buf)
	return out, buf, len(buf), err
}

package slab

import (
	"math/rand"
	"testing"

	"squall/internal/types"
	"squall/internal/wire"
)

func randTuple(r *rand.Rand) types.Tuple {
	n := 1 + r.Intn(5)
	t := make(types.Tuple, n)
	for i := range t {
		switch r.Intn(4) {
		case 0:
			t[i] = types.Int(r.Int63n(1_000_000) - 500_000)
		case 1:
			t[i] = types.Float(r.NormFloat64() * 100)
		case 2:
			t[i] = types.Str(string(rune('a'+r.Intn(26))) + "payload")
		default:
			t[i] = types.Null()
		}
	}
	return t
}

func TestAppendDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := New()
	var want []types.Tuple
	for i := 0; i < 500; i++ {
		tup := randTuple(r)
		ref := a.Append(tup)
		if int(ref) != i {
			t.Fatalf("ref %d for row %d", ref, i)
		}
		want = append(want, tup)
	}
	for i, w := range want {
		got := a.Decode(Ref(i))
		if !got.Equal(w) {
			t.Fatalf("row %d: decoded %v, want %v", i, got, w)
		}
	}
	if a.Rows() != 500 {
		t.Fatalf("Rows=%d", a.Rows())
	}
}

func TestDecodeIntoReusesBuffer(t *testing.T) {
	a := New()
	ref := a.Append(types.Tuple{types.Int(1), types.Int(2), types.Int(3)})
	buf := make(types.Tuple, 0, 8)
	out := a.DecodeInto(buf, ref)
	if &out[:1][0] != &buf[:1][0] {
		t.Error("DecodeInto must reuse the provided buffer")
	}
	if !out.Equal(types.Tuple{types.Int(1), types.Int(2), types.Int(3)}) {
		t.Errorf("decoded %v", out)
	}
}

func TestRowBytesMatchWireEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := New()
	var tuples []types.Tuple
	for i := 0; i < 64; i++ {
		tup := randTuple(r)
		tuples = append(tuples, tup)
		a.Append(tup)
	}
	for i, tup := range tuples {
		want := wire.Encode(nil, tup)
		got := a.RowBytes(Ref(i))
		if string(got) != string(want) {
			t.Fatalf("row %d bytes diverge from wire encoding", i)
		}
	}
}

// TestEachFrameDecodesAsWireBatches: frames produced by blitting stored rows
// must decode with the ordinary wire batch decoder, byte-compatibly with
// EncodeBatch over the same tuples — the property state migration relies on.
func TestEachFrameDecodesAsWireBatches(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := New()
	var want []types.Tuple
	for i := 0; i < 100; i++ {
		tup := randTuple(r)
		a.Append(tup)
		want = append(want, tup)
	}
	for _, batchSize := range []int{1, 7, 64, 1000} {
		var got []types.Tuple
		frames := 0
		a.EachFrame(batchSize, nil, func(frame []byte, count int) bool {
			frames++
			tuples, consumed, err := wire.DecodeBatch(frame)
			if err != nil {
				t.Fatalf("batch=%d frame %d: %v", batchSize, frames, err)
			}
			if consumed != len(frame) || len(tuples) != count {
				t.Fatalf("batch=%d: consumed %d of %d, %d tuples vs count %d",
					batchSize, consumed, len(frame), len(tuples), count)
			}
			if count > batchSize {
				t.Fatalf("frame of %d exceeds batch size %d", count, batchSize)
			}
			got = append(got, tuples...)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d tuples across frames, want %d", batchSize, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("batch=%d row %d: %v vs %v", batchSize, i, got[i], want[i])
			}
		}
	}
}

func TestMemSizeTracksRealBytes(t *testing.T) {
	a := New()
	base := a.MemSize()
	for i := 0; i < 1000; i++ {
		a.Append(types.Tuple{types.Int(int64(i)), types.Str("abcdefgh")})
	}
	sz := a.MemSize()
	if sz <= base {
		t.Fatal("MemSize must grow with appends")
	}
	// ~12 bytes of row payload + 4 of offset per row, at slice-growth slack.
	if per := float64(sz-base) / 1000; per > 48 {
		t.Errorf("%.1f bytes per stored row; compactness lost", per)
	}
}

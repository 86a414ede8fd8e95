package wire

import (
	"bytes"
	"testing"

	"squall/internal/types"
)

// FuzzFrameDelivery drives arbitrary bytes through the full frame-delivery
// path a TCP receiver exercises: admission (ValidateBatchFrame), the row
// walk (EachRow + Cursor field materialization), the boxed decode
// (StripFooter + BatchDecoder), and the advisory footer view (ParseFooter +
// ColOffsets). The contract under fuzzing:
//
//  1. nothing panics or over-reads, whatever the bytes;
//  2. a frame that passes admission is decodable by every consumer path,
//     and all paths agree on the row count and row contents.
func FuzzFrameDelivery(f *testing.F) {
	// Seed with well-formed frames (bare, footered, empty, single-row) and
	// hostile shapes (truncations, count lies, corrupt footers).
	mk := func(batch []types.Tuple, footer bool) []byte {
		frame := EncodeBatch(nil, batch)
		if footer {
			frame = AppendFooter(frame)
		}
		return frame
	}
	batch := []types.Tuple{
		{types.Int(1), types.Str("ab"), types.Float(2.5)},
		{types.Int(-7), types.Str(""), types.Float(0)},
		{types.Int(1 << 40), types.Str("xyzzy"), types.Null()},
	}
	f.Add(mk(batch, false))
	f.Add(mk(batch, true))
	f.Add(mk(nil, false))
	f.Add(mk(batch[:1], true))
	if frame := mk(batch, true); len(frame) > 3 {
		f.Add(frame[:len(frame)-3])                                   // torn mid-footer
		f.Add(frame[:len(frame)/2])                                   // torn mid-row
		f.Add(append([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, frame...)) // huge count
		corrupt := bytes.Clone(frame)
		corrupt[len(corrupt)-5] ^= 0x40 // flip a bit in the footer body length
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})       // one row promised, none present
	f.Add([]byte{0x00, 0xF7}) // empty batch + stray footer magic byte

	f.Fuzz(func(t *testing.T, frame []byte) {
		count, verr := ValidateBatchFrame(frame)
		// Footer parsing must be safe on everything, admitted or not.
		var foot Footer
		footOK := ParseFooter(frame, &foot)
		if footOK {
			var offs []int32
			for c := 0; c < foot.NCols; c++ {
				offs, _ = foot.ColOffsets(c, offs)
			}
		}
		if verr != nil {
			return
		}

		// Admitted: the row walk with full field materialization must work.
		var cur Cursor
		var walked []types.Tuple
		n, consumed, err := EachRow(frame, &cur, func(row []byte) error {
			walked = append(walked, cur.Tuple(nil))
			return nil
		})
		if err != nil {
			t.Fatalf("admitted frame failed EachRow: %v", err)
		}
		if n != count {
			t.Fatalf("row count disagreement: validate=%d walk=%d", count, n)
		}
		if consumed > len(frame) {
			t.Fatalf("EachRow consumed %d of %d bytes", consumed, len(frame))
		}

		// The boxed path: strip any valid footer, batch-decode the rest.
		stripped := StripFooter(frame)
		tuples, _, err := DecodeBatch(stripped)
		if err != nil {
			t.Fatalf("admitted frame failed DecodeBatch(StripFooter): %v", err)
		}
		if len(tuples) != count {
			t.Fatalf("decode count disagreement: validate=%d decode=%d", count, len(tuples))
		}
		for i := range tuples {
			if tuples[i].Compare(walked[i]) != 0 {
				t.Fatalf("row %d: decode %v != walk %v", i, tuples[i], walked[i])
			}
		}

		// A footer surviving admission must agree with the walk on geometry
		// (admission rejects the disagreeing ones — the truncate-mid-row bug).
		if ParseFooter(frame, &foot) {
			if foot.Count != count {
				t.Fatalf("footer count %d != frame count %d", foot.Count, count)
			}
			if foot.RowsEnd != consumed || foot.RowsOff > foot.RowsEnd {
				t.Fatalf("footer rows region [%d,%d) disagrees with walked end %d",
					foot.RowsOff, foot.RowsEnd, consumed)
			}
		}
	})
}

package slab

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
)

func buildSegment(rows [][]byte) ([]uint32, []byte) {
	var payload []byte
	offs := make([]uint32, 0, len(rows)+1)
	for _, r := range rows {
		offs = append(offs, uint32(len(payload)))
		payload = append(payload, r...)
	}
	offs = append(offs, uint32(len(payload)))
	return offs, payload
}

func TestSegmentRoundTrip(t *testing.T) {
	rows := [][]byte{
		[]byte("hello"),
		[]byte("a much longer row payload with some bytes"),
		{0x00, 0xff, 0x80},
	}
	offs, payload := buildSegment(rows)
	enc := AppendSegment(nil, offs, payload)

	gotOffs, gotPayload, _, err := DecodeSegment(enc)
	if err != nil {
		t.Fatalf("DecodeSegment: %v", err)
	}
	if len(gotOffs) != len(offs) {
		t.Fatalf("offs len = %d, want %d", len(gotOffs), len(offs))
	}
	for i := range offs {
		if gotOffs[i] != offs[i] {
			t.Fatalf("offs[%d] = %d, want %d", i, gotOffs[i], offs[i])
		}
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("payload mismatch")
	}
}

func TestSegmentEmptyRows(t *testing.T) {
	offs := []uint32{0}
	enc := AppendSegment(nil, offs, nil)
	gotOffs, gotPayload, _, err := DecodeSegment(enc)
	if err != nil {
		t.Fatalf("DecodeSegment(empty): %v", err)
	}
	if len(gotOffs) != 1 || len(gotPayload) != 0 {
		t.Fatalf("empty segment decoded to %d offs, %dB payload", len(gotOffs), len(gotPayload))
	}
}

// A row is never empty, so a segment with a zero-length span is corrupt even
// when its CRC is valid: decoding it must fail rather than yield a row fewer.
func TestSegmentRejectsEmptySpan(t *testing.T) {
	offs, payload := buildSegment([][]byte{[]byte("row-one"), {}, []byte("row-three")})
	if _, _, _, err := DecodeSegment(AppendSegment(nil, offs, payload)); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("DecodeSegment(empty span) = %v, want ErrSegmentCorrupt", err)
	}
}

// sealBody appends the CRC32 trailer to a hand-built segment body, so a
// malformed header or span table reaches the structural checks instead of
// failing the checksum first.
func sealBody(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// Each structural check of DecodeSegment must reject its own malformation
// even behind a valid CRC (the mutation test below only ever trips the CRC).
func TestSegmentStructuralChecks(t *testing.T) {
	hdr := func(magic string, version byte, rest ...byte) []byte {
		return append(append([]byte(magic), version), rest...)
	}
	if got, want := sealBody(hdr(segMagic, segVersion, 1, 3, 'a', 'b', 'c')),
		AppendSegment(nil, []uint32{0, 3}, []byte("abc")); !bytes.Equal(got, want) {
		t.Fatalf("hand-built segment %x != AppendSegment %x", got, want)
	}
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"bad_magic", hdr("SQSX", segVersion, 1, 3, 'a', 'b', 'c'), "bad magic"},
		{"unsupported_version", hdr(segMagic, segVersion+1, 1, 3, 'a', 'b', 'c'), "unsupported version 2"},
		{"truncated_row_count", hdr(segMagic, segVersion, 0x80), "bad row count"},
		{"row_count_exceeds_body", hdr(segMagic, segVersion, 5, 3, 'a'), "row count 5 exceeds body"},
		{"truncated_span", hdr(segMagic, segVersion, 1, 0x80), "bad span 0"},
		{"spans_exceed_body", hdr(segMagic, segVersion, 1, 0xc8, 0x01, 'a', 'b', 'c'), "spans exceed body"},
		{"payload_short_of_spans", hdr(segMagic, segVersion, 1, 5, 'a', 'b', 'c'), "payload 3B, spans say 5B"},
		{"payload_past_spans", hdr(segMagic, segVersion, 1, 2, 'a', 'b', 'c'), "payload 3B, spans say 2B"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, _, err := DecodeSegment(sealBody(c.body))
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("DecodeSegment = %v, want ErrSegmentCorrupt", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("DecodeSegment = %q, want the %q check", err, c.want)
			}
		})
	}
}

// Every single-byte mutation of an encoded segment must be rejected — the
// CRC covers all preceding bytes including magic and header.
func TestSegmentRejectsMutations(t *testing.T) {
	offs, payload := buildSegment([][]byte{[]byte("row-one"), []byte("row-two-longer")})
	enc := AppendSegment(nil, offs, payload)
	for i := range enc {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), enc...)
			mut[i] ^= flip
			if _, _, _, err := DecodeSegment(mut); err == nil {
				t.Fatalf("mutation at byte %d (^%#x) not rejected", i, flip)
			} else if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("mutation at byte %d: error %v is not ErrSegmentCorrupt", i, err)
			}
		}
	}
	// Truncations at every length must be rejected too.
	for n := 0; n < len(enc); n++ {
		if _, _, _, err := DecodeSegment(enc[:n]); err == nil {
			t.Fatalf("truncation to %dB not rejected", n)
		}
	}
}

func FuzzSegment(f *testing.F) {
	offs, payload := buildSegment([][]byte{[]byte("seed-row"), []byte("another")})
	f.Add(AppendSegment(nil, offs, payload))
	offs, payload = buildSegment([][]byte{[]byte("seed-row"), {}, []byte("another")})
	f.Add(AppendSegment(nil, offs, payload)) // valid CRC, empty span: must fail
	f.Add([]byte("SQSG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode must never panic, and any successful decode must
		// re-encode to bytes that decode identically (self-consistency).
		gotOffs, gotPayload, crc, err := DecodeSegment(data)
		if err != nil {
			return
		}
		for i := 0; i+1 < len(gotOffs); i++ {
			if gotOffs[i] == gotOffs[i+1] {
				t.Fatalf("decode accepted an empty span at row %d", i)
			}
		}
		re := AppendSegment(nil, gotOffs, gotPayload)
		reOffs, rePayload, reCRC, err := DecodeSegment(re)
		if err != nil {
			t.Fatalf("re-encode of valid segment failed: %v", err)
		}
		if crc != reCRC {
			t.Fatalf("re-encode CRC %08x != original %08x", reCRC, crc)
		}
		if len(reOffs) != len(gotOffs) || !bytes.Equal(rePayload, gotPayload) {
			t.Fatalf("re-encode round trip mismatch")
		}
	})
}

package delta

import (
	"bytes"
	"math"
	"testing"
)

// FuzzCompressRoundTrip feeds arbitrary source/target pairs through both
// compressors, re-encoding, and decode, asserting byte-exact round trips.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte("the quick brown fox"), []byte("the quick red fox jumps"))
	f.Add([]byte(""), []byte("only target"))
	f.Add(bytes.Repeat([]byte("ab"), 100), bytes.Repeat([]byte("ab"), 101))
	f.Add(make([]byte, 64), make([]byte, 65))
	f.Fuzz(func(t *testing.T, src, tgt []byte) {
		for _, interval := range []int{16, 64} {
			d := Compress(src, tgt, Options{AnchorInterval: interval})
			got, err := Apply(src, d)
			if err != nil || !bytes.Equal(got, tgt) {
				t.Fatalf("interval %d: forward round trip failed: %v", interval, err)
			}
			bwd := Reencode(src, tgt, d)
			back, err := Apply(tgt, bwd)
			if err != nil || !bytes.Equal(back, src) {
				t.Fatalf("interval %d: backward round trip failed: %v", interval, err)
			}
			// Wire round trip.
			d2, err := Unmarshal(d.Marshal())
			if err != nil {
				t.Fatalf("unmarshal own marshal: %v", err)
			}
			got2, err := Apply(src, d2)
			if err != nil || !bytes.Equal(got2, tgt) {
				t.Fatal("wire round trip failed")
			}
		}
		dx := CompressXDelta(src, tgt)
		got, err := Apply(src, dx)
		if err != nil || !bytes.Equal(got, tgt) {
			t.Fatalf("xdelta round trip failed: %v", err)
		}
	})
}

// FuzzUnmarshal feeds arbitrary bytes to the wire decoder; it must never
// panic, and anything it accepts must be safely appliable.
func FuzzUnmarshal(f *testing.F) {
	good := Compress([]byte("source content here"), []byte("target content here too"), Options{})
	f.Add(good.Marshal())
	f.Add([]byte{0xd5, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		d, err := Unmarshal(buf)
		if err != nil {
			return
		}
		_, _ = Apply([]byte("arbitrary base content for fuzzed deltas"), d)
	})
}

// FuzzMatches checks that Matches agrees with Apply plus bytes.Equal and
// never panics, on valid deltas, on deltas corrupted field by field (each
// 3-byte group of edits picks an instruction, a field and a change) and on
// edits parsed as a wire-format delta.
func FuzzMatches(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps"), []byte("the quick red fox jumps over"), []byte{})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), []byte("the quick brown cat jumps over the lazy dog"), []byte{0, 1, 200, 1, 2, 7})
	f.Add(bytes.Repeat([]byte("ab"), 100), bytes.Repeat([]byte("ab"), 101), []byte{0, 3, 0, 0, 5, 0})
	f.Add([]byte("base"), []byte("target"), []byte{0, 4, 255})
	f.Add([]byte("source content here"), []byte("target content here too"),
		Compress([]byte("source content here"), []byte("target content here too"), Options{}).Marshal())
	f.Fuzz(func(t *testing.T, base, tgt, edits []byte) {
		d := Compress(base, tgt, Options{AnchorInterval: 16})
		d = corruptDelta(d, edits)
		flipped := append([]byte(nil), tgt...)
		if len(flipped) > 0 {
			flipped[len(flipped)/2] ^= 1
		}
		for _, want := range [][]byte{tgt, flipped, tgt[:len(tgt)/2]} {
			checkMatchesAgreesWithApply(t, base, d, want)
		}
		if wire, err := Unmarshal(edits); err == nil {
			checkMatchesAgreesWithApply(t, base, wire, tgt)
		}
	})
}

// corruptDelta returns a copy of d with one field changed per 3-byte group
// of edits: (instruction, field, value).
func corruptDelta(d Delta, edits []byte) Delta {
	d.Insts = append([]Instruction(nil), d.Insts...)
	for ; len(edits) >= 3; edits = edits[3:] {
		v := int(int8(edits[2]))
		var inst *Instruction
		if len(d.Insts) > 0 {
			inst = &d.Insts[int(edits[0])%len(d.Insts)]
		}
		switch edits[1] % 6 {
		case 0:
			d.TargetLen += v
		case 1:
			d.TargetLen = math.MaxInt - int(edits[2])
		case 2:
			if inst != nil {
				inst.Op = Op(edits[2] % 3)
			}
		case 3:
			if inst != nil {
				inst.Off += v
			}
		case 4:
			if inst != nil {
				inst.Len += v
			}
		case 5:
			if inst != nil {
				inst.Off = math.MaxInt - int(edits[2])
			}
		}
	}
	return d
}

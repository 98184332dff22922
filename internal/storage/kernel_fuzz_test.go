package storage

import (
	"encoding/binary"
	"testing"
)

// fuzzValues turns fuzz bytes into up to BlockSize column values in one of
// three shapes, so each encoding encodeInts can pick is reached: runs of
// repeated values (RLE), one byte of delta over a base (FOR), and raw 8-byte
// values (wide FOR or EncRaw).
func fuzzValues(data []byte, shape uint8, base int64) []int64 {
	var vals []int64
	switch shape % 3 {
	case 0:
		for i := 0; i+1 < len(data) && len(vals) < BlockSize; i += 2 {
			v := base + int64(data[i]%8)*1e12
			for n := int(data[i+1])%97 + 1; n > 0 && len(vals) < BlockSize; n-- {
				vals = append(vals, v)
			}
		}
	case 1:
		for i := 0; i < len(data) && len(vals) < BlockSize; i++ {
			vals = append(vals, int64(uint64(base)+uint64(data[i])))
		}
	default:
		for i := 0; i+8 <= len(data) && len(vals) < BlockSize; i += 8 {
			vals = append(vals, int64(binary.LittleEndian.Uint64(data[i:])))
		}
	}
	return vals
}

// FuzzEvalPred is the block encode → kernel-eval round trip: values are
// sealed into a block with whatever encoding encodeInts picks, and the mask
// kernel, the ranges adapter and the partial decoder must agree with
// decode-then-Match for interval and set predicates under an arbitrary
// candidate mask.
func FuzzEvalPred(f *testing.F) {
	f.Add([]byte("\x01\x40\x02\x20\x01\x60\x03\x10"), uint8(0), int64(0), int64(1e12), int64(2e12), uint8(0), []byte{0xff, 0x0f})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over the lazy dog"), uint8(1), int64(9000), int64(9100), int64(9110), uint8(1), []byte{0xaa, 0x55, 0xff})
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x80\xff\xff\xff\xff\xff\xff\xff\x7f\x01\x00\x00\x00\x00\x00\x00\x00"), uint8(2), int64(0), int64(-1), int64(1), uint8(2), []byte{0x07})
	f.Add([]byte("aaaaaaaabbbbbbbbccccccccddddddddeeeeeeee"), uint8(1), int64(-1<<63), int64(-1<<63+98), int64(-1<<63+99), uint8(7), []byte{})
	// Full 1,000-row blocks, so the 64-fields-at-a-time path runs as well as
	// the per-candidate one: pseudo-random byte deltas (FOR), byte pairs as
	// runs (RLE), and 8-byte values (raw).
	long := make([]byte, 8*BlockSize)
	x := uint32(2463534242)
	for i := range long {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		long[i] = byte(x)
	}
	f.Add(long[:BlockSize], uint8(1), int64(-40), int64(10), int64(90), uint8(2), []byte{})
	f.Add(long[:BlockSize], uint8(1), int64(1<<62), int64(1<<62+7), int64(1<<62+7), uint8(3), []byte{0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x10})
	f.Add(long[:200], uint8(0), int64(5), int64(5+2e12), int64(5+4e12), uint8(0), []byte{0xf0})
	f.Add(long, uint8(2), int64(0), int64(-1<<62), int64(1<<62), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, base, lo, hi int64, flags uint8, maskBytes []byte) {
		vals := fuzzValues(data, shape, base)
		if len(vals) == 0 {
			return
		}
		c := newColumnStore(Int64, nil)
		for _, v := range vals {
			c.appendInt(v)
		}
		c.seal()
		bn := len(vals)
		full := make([]int64, BlockSize)
		if got := c.ReadIntBlock(0, full); got != bn {
			t.Fatalf("decoded %d rows, sealed %d", got, bn)
		}
		for i, v := range vals {
			if full[i] != v {
				t.Fatalf("row %d decodes to %d, sealed %d (%v)", i, full[i], v, c.blocks[0].Enc)
			}
		}

		// Candidate mask: maskBytes repeated over the block; none → all rows.
		var seed BlockMask
		for r := 0; r < bn; r++ {
			if len(maskBytes) == 0 || maskBytes[(r/8)%len(maskBytes)]>>(r%8)&1 == 1 {
				seed.SetRange(r, r+1)
			}
		}
		spans := seed.AppendRanges(nil, 0)

		set := map[int64]struct{}{lo: {}, hi: {}, vals[0]: {}, vals[bn/2]: {}}
		var setVals []int64
		if flags&2 != 0 {
			for v := range set {
				setVals = append(setVals, v)
			}
		}
		built := NewIntSetPred(set, setVals)
		preds := []IntPred{
			{Kind: IntPredRange, Lo: lo, Hi: hi},
			{Kind: IntPredSet, Set: set, SetVals: setVals},
			built,
		}
		for pi := range preds {
			p := &preds[pi]
			p.Not = flags&1 != 0
			want := refRanges(full, spans, p.Match)
			m := seed
			ok := c.EvalPredMask(0, p, &m)
			got, okRanges := c.EvalPredRanges(0, p, spans, nil)
			if ok != okRanges {
				t.Fatalf("pred %+v: mask ok=%v, adapter ok=%v", *p, ok, okRanges)
			}
			if !ok {
				continue
			}
			if fromMask := m.AppendRanges(nil, 0); !rangesEqual(fromMask, want) {
				t.Fatalf("%v block, pred %+v: mask = %v, want %v", c.blocks[0].Enc, *p, fromMask, want)
			}
			if !rangesEqual(got, want) {
				t.Fatalf("%v block, pred %+v: adapter = %v, want %v", c.blocks[0].Enc, *p, got, want)
			}
		}

		// Partial decode of every candidate span.
		part := make([]int64, BlockSize)
		for _, sp := range spans {
			n := c.ReadIntRange(0, sp.Start, sp.End, part)
			if n != sp.End-sp.Start {
				t.Fatalf("ReadIntRange(%d,%d) = %d rows", sp.Start, sp.End, n)
			}
			for j := 0; j < n; j++ {
				if part[j] != full[sp.Start+j] {
					t.Fatalf("ReadIntRange(%d,%d)[%d] = %d, want %d", sp.Start, sp.End, j, part[j], full[sp.Start+j])
				}
			}
		}
	})
}

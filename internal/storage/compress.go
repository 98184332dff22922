package storage

import "math/bits"

// Encoding identifies the physical compression of one block. Redshift
// implements "compression techniques like frame-of-reference, run-length
// encoding, or dictionary compression" (§4.2.2); strings are dictionary
// encoded at the column level, and every integer block independently picks
// the cheapest of the remaining encodings.
type Encoding uint8

const (
	// EncRaw stores values verbatim.
	EncRaw Encoding = iota
	// EncRLE stores (value, runLength) pairs.
	EncRLE
	// EncFOR stores a frame-of-reference base plus fixed-width bit-packed
	// deltas.
	EncFOR
)

func (e Encoding) String() string {
	switch e {
	case EncRaw:
		return "raw"
	case EncRLE:
		return "rle"
	case EncFOR:
		return "for"
	}
	return "unknown"
}

// rleSize returns the number of (value,run) pairs RLE would need.
func rleSize(vals []int64) int {
	if len(vals) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	return runs
}

// forWidth returns the bit width needed to encode values in [min, max]
// relative to min. The subtraction is exact in two's-complement wrapping
// arithmetic even when max-min overflows int64.
func forWidth(min, max int64) int {
	return bits.Len64(uint64(max) - uint64(min))
}

// encodeInts compresses vals into a fresh payload, choosing the smallest of
// raw, RLE, and FOR. min/max are the already-computed bounds of vals.
func encodeInts(vals []int64, min, max int64) (Encoding, []uint64) {
	n := len(vals)
	rawWords := n
	runs := rleSize(vals)
	rleWords := runs * 2
	width := forWidth(min, max)
	forWords := (n*width+63)/64 + 1 // +1 word for the base
	switch {
	case rleWords < rawWords && rleWords <= forWords:
		out := make([]uint64, 0, rleWords)
		i := 0
		for i < n {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			out = append(out, uint64(vals[i]), uint64(j-i))
			i = j
		}
		return EncRLE, out
	case forWords < rawWords:
		out := make([]uint64, forWords)
		out[0] = uint64(min)
		if width > 0 {
			packBits(out[1:], vals, min, width)
		}
		return EncFOR, out
	default:
		out := make([]uint64, n)
		for i, v := range vals {
			out[i] = uint64(v)
		}
		return EncRaw, out
	}
}

// packBits writes (vals[i]-base) as width-bit little-endian fields into dst.
func packBits(dst []uint64, vals []int64, base int64, width int) {
	bitPos := 0
	for _, v := range vals {
		d := uint64(v - base)
		word := bitPos >> 6
		off := bitPos & 63
		dst[word] |= d << off
		if off+width > 64 {
			dst[word+1] |= d >> (64 - off)
		}
		bitPos += width
	}
}

// forField extracts the width-bit field that starts at bit bitPos of src;
// mask is the field's width in ones. A field may straddle two words.
func forField(src []uint64, bitPos, width uint, mask uint64) uint64 {
	word, off := bitPos>>6, bitPos&63
	d := src[word] >> off
	if off+width > 64 {
		d |= src[word+1] << ((64 - off) & 63)
	}
	return d & mask
}

// unpackBits reads n width-bit fields from src and writes base+field to dst.
func unpackBits(dst []int64, src []uint64, base int64, width, n int) {
	if width == 0 {
		for i := 0; i < n; i++ {
			dst[i] = base
		}
		return
	}
	unpackBitsFrom(dst, src, base, width, 0, n)
}

// unpackBitsFrom reads n width-bit fields starting at field index start and
// writes base+field to dst. width must be > 0 (callers handle constant
// blocks). Seeking is O(1): the first field's bit offset is start*width.
func unpackBitsFrom(dst []int64, src []uint64, base int64, width, start, n int) {
	mask := ^uint64(0) >> (64 - uint(width))
	bitPos := uint(start * width)
	for i := 0; i < n; i++ {
		dst[i] = base + int64(forField(src, bitPos, uint(width), mask))
		bitPos += uint(width)
	}
}

// decodeInts decompresses a payload produced by encodeInts into dst, which
// must have room for n values.
func decodeInts(enc Encoding, payload []uint64, n int, min, max int64, dst []int64) {
	switch enc {
	case EncRaw:
		for i := 0; i < n; i++ {
			dst[i] = int64(payload[i])
		}
	case EncRLE:
		pos := 0
		for i := 0; i < len(payload); i += 2 {
			v := int64(payload[i])
			run := int(payload[i+1])
			for j := 0; j < run; j++ {
				dst[pos] = v
				pos++
			}
		}
	case EncFOR:
		base := int64(payload[0])
		unpackBits(dst[:n], payload[1:], base, forWidth(min, max), n)
	}
}

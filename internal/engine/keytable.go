package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/predcache/predcache/internal/storage"
)

// keyCol reads one join or group-by key column as one uint64 word per row:
// an int, date or bool value, a dictionary code (a RelCol has one Dict, so
// equal codes mean equal strings), or a float's bits (bit-exact equality).
// trans, when set, maps this column's dictionary codes to the codes of the
// column it is matched against, -1 for a value that dictionary lacks.
type keyCol struct {
	ints   []int64
	floats []float64
	float  bool
	trans  []int64
}

func (c *keyCol) word(row int) uint64 {
	switch {
	case c.float:
		return math.Float64bits(c.floats[row])
	case c.trans != nil:
		return uint64(c.trans[c.ints[row]])
	}
	return uint64(c.ints[row])
}

// keyCols is one relation's key, a word per column.
type keyCols []keyCol

// relKeyCols resolves rel's key columns by name and reads them as words.
func relKeyCols(rel *Relation, names []string, what string) ([]*RelCol, keyCols, error) {
	cols := make([]*RelCol, len(names))
	k := make(keyCols, len(names))
	for i, name := range names {
		c := rel.ColByName(name)
		if c == nil {
			return nil, nil, fmt.Errorf("engine: %s %q not found", what, name)
		}
		cols[i] = c
		k[i] = keyCol{ints: c.Ints, floats: c.Floats, float: c.Type == storage.Float64}
	}
	return cols, k, nil
}

// matchKeys prepares probe key words to be looked up among build key
// words, position by position: ints, dates and bools pair with one another,
// strings with strings and floats with floats. A probe string column whose
// dictionary is not the build column's is translated code by code, once,
// so the lookup never touches a string.
func matchKeys(probe keyCols, probeCols, buildCols []*RelCol) error {
	for i, p := range probeCols {
		b := buildCols[i]
		if keyClass(p.Type) != keyClass(b.Type) {
			return fmt.Errorf("engine: join key %s (%s) cannot match %s (%s)", p.Name, p.Type, b.Name, b.Type)
		}
		if p.Type == storage.String && p.Dict != b.Dict {
			trans := make([]int64, p.Dict.Len())
			for code := range trans {
				c, ok := b.Dict.Lookup(p.Dict.Value(int64(code)))
				if !ok {
					c = -1
				}
				trans[code] = c
			}
			probe[i].trans = trans
		}
	}
	return nil
}

// keyClass groups the column types whose words compare equal for equal
// values.
func keyClass(t storage.ColumnType) storage.ColumnType {
	if t == storage.Float64 || t == storage.String {
		return t
	}
	return storage.Int64
}

// hashMul is the odd multiplier of the per-word key fold.
const hashMul = 0x9e3779b97f4a7c15

// hash folds row's key words with one multiply-xor each and finishes with
// mix64. Tables take slots from the low bits; partitioned operators take the
// partition from the high bits (partShift), so the two stay independent.
func (k keyCols) hash(row int) uint64 {
	var h uint64
	for i := range k {
		h = (h ^ k[i].word(row)) * hashMul
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: every input bit reaches every output
// bit, so both the low (slot) and high (partition) bits of a hash are well
// spread.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// partShift is the right shift that turns a key hash into one of nParts
// (a power of two) partitions; 64 makes every hash partition 0.
func partShift(nParts int) uint { return uint(64 - bits.TrailingZeros(uint(nParts))) }

// keyTable maps fixed-width keys to dense ids in first-sight order. Key id
// k's words are words[k*width : (k+1)*width]; slots is an open-addressing
// index (linear probing, at most half full) holding id+1, 0 when empty.
type keyTable struct {
	width int
	words []uint64
	slots []int32
	mask  uint64
}

// newKeyTable returns a table of width-word keys sized for n keys.
func newKeyTable(width, n int) keyTable {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return keyTable{width: width, words: make([]uint64, 0, n*width), slots: make([]int32, size), mask: uint64(size - 1)}
}

// find returns the id of row's key (h = k.hash(row)), or -1.
func (t *keyTable) find(k keyCols, row int, h uint64) int32 {
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		id := t.slots[s] - 1
		if id < 0 || t.equal(id, k, row) {
			return id
		}
	}
}

// findOrAdd returns the id of row's key (h = k.hash(row)), adding the key
// if it is new; added reports that it was.
func (t *keyTable) findOrAdd(k keyCols, row int, h uint64) (id int32, added bool) {
	s := h & t.mask
	for ; t.slots[s] != 0; s = (s + 1) & t.mask {
		if id := t.slots[s] - 1; t.equal(id, k, row) {
			return id, false
		}
	}
	id = int32(len(t.words) / t.width)
	for i := range k {
		t.words = append(t.words, k[i].word(row))
	}
	t.slots[s] = id + 1
	if 2*int(id+1) > len(t.slots) {
		t.grow()
	}
	return id, true
}

func (t *keyTable) equal(id int32, k keyCols, row int) bool {
	key := t.words[int(id)*t.width:][:t.width]
	for i, w := range key {
		if w != k[i].word(row) {
			return false
		}
	}
	return true
}

// grow doubles the slot index and re-inserts every key, rehashing its
// stored words with the fold keyCols.hash applies to a row. The arena is
// reserved for every key the new index takes before it grows again, so
// words double with slots instead of growing by append's smaller steps,
// which would copy the arena about five times over.
func (t *keyTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	t.mask = uint64(len(t.slots) - 1)
	t.words = slices.Grow(t.words, len(t.slots)/2*t.width-len(t.words))
	for id := 0; id*t.width < len(t.words); id++ {
		var h uint64
		for _, w := range t.words[id*t.width:][:t.width] {
			h = (h ^ w) * hashMul
		}
		s := mix64(h) & t.mask
		for t.slots[s] != 0 {
			s = (s + 1) & t.mask
		}
		t.slots[s] = int32(id + 1)
	}
}

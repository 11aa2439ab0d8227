package core

// This file implements the 64-bit-hash tuple set backing the set semantics
// of Relation and of every Accumulator shard. Membership costs one FNV-1a
// hash over the row values plus, on a tag hit, one value-wise comparison —
// no per-row key packing, no string allocation — and the table costs one
// 8-byte word per slot.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashValues hashes all values of a row with FNV-1a. It is consistent with
// HashValuesAt over all positions, so the dedup hash and the partitioning
// hash share one definition.
func HashValues(row []Value) uint64 {
	h := uint64(fnvOffset64)
	for _, val := range row {
		v := uint64(val)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
	}
	return h
}

// rowsEqual compares two rows value-wise (equal length assumed by callers).
func rowsEqual(a, b []Value) bool {
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// tupleSet is an open-addressing (linear probing) hash set of row indices
// into an external row store. The zero value is an empty set. Each slot is
// one word: the row hash's low 32 bits (its tag) in the upper half above
// rowIndex+1 in the lower half, so 0 marks an empty slot. The tag holds the
// home slot's bits (a table never exceeds 2^32 slots, as row indices fit 32
// bits), so rehash and remove place entries from the words alone, and a
// probe reads the row store only for a slot whose tag matches.
type tupleSet struct {
	slots []uint64
	n     int
}

const tupleSetMinCap = 16

// slotWord packs a row hash's tag and a row reference (rowIndex+1).
func slotWord(h uint64, ref int32) uint64 { return h<<32 | uint64(uint32(ref)) }

// home returns the home slot of a filled slot word under mask.
func home(w, mask uint64) uint64 { return w >> 32 & mask }

// reserve sizes the table for about n entries.
func (s *tupleSet) reserve(n int) {
	want := tupleSetMinCap
	for want*3 < n*4 { // capacity ≥ 4/3·n keeps load ≤ 0.75
		want *= 2
	}
	if want > len(s.slots) {
		s.rehash(want)
	}
}

// growFor ensures capacity for n entries. Rehashing moves slot words only;
// the row store is never consulted.
func (s *tupleSet) growFor(n int) {
	if len(s.slots) == 0 {
		s.rehash(tupleSetMinCap)
		return
	}
	if n*4 > len(s.slots)*3 {
		s.rehash(len(s.slots) * 2)
	}
}

func (s *tupleSet) rehash(capacity int) {
	old := s.slots
	s.slots = make([]uint64, capacity)
	mask := uint64(capacity - 1)
	for _, w := range old {
		if w == 0 {
			continue
		}
		j := home(w, mask)
		for s.slots[j] != 0 {
			j = (j + 1) & mask
		}
		s.slots[j] = w
	}
}

// find walks the probe run of hash h and returns the slot holding a row
// eq accepts (found) or the empty slot where that row should be inserted
// (!found). eq is asked about a row index only when the slot's tag matches
// h, so the row store is touched about once per probe. The table must have
// free capacity (call growFor first).
func (s *tupleSet) find(h uint64, eq func(i int) bool) (slot int, found bool) {
	if len(s.slots) == 0 {
		return -1, false
	}
	mask := uint64(len(s.slots) - 1)
	tag := h << 32
	for i := h & mask; ; i = (i + 1) & mask {
		w := s.slots[i]
		if w == 0 {
			return int(i), false
		}
		if (w^tag)>>32 == 0 && eq(int(uint32(w))-1) {
			return int(i), true
		}
	}
}

// lookup is find against a flat row-major store (arity values per row).
func (s *tupleSet) lookup(h uint64, row []Value, data []Value, arity int) (slot int, found bool) {
	return s.find(h, func(i int) bool {
		return rowsEqual(data[i*arity:(i+1)*arity], row)
	})
}

// rowAt returns the row index a filled slot refers to.
func (s *tupleSet) rowAt(slot int) int { return int(uint32(s.slots[slot])) - 1 }

// remove vacates a filled slot, repairing the probe sequences that run
// through it (backward-shift deletion): entries past the hole whose probe
// path crosses it are moved back, so lookup never needs tombstones and
// the table's load never degrades from deletions.
func (s *tupleSet) remove(slot int) {
	mask := uint64(len(s.slots) - 1)
	i := uint64(slot)
	for {
		s.slots[i] = 0
		j := i
		for {
			j = (j + 1) & mask
			w := s.slots[j]
			if w == 0 {
				s.n--
				return
			}
			// The entry at j may move into the hole at i only if its home
			// slot is not cyclically inside (i, j] — otherwise the move
			// would place it before its own probe sequence starts.
			if (j-home(w, mask))&mask >= (j-i)&mask {
				s.slots[i] = w
				i = j
				break
			}
		}
	}
}

// reref updates the row reference stored in a filled slot, keeping its tag
// (used by swap-remove, where the last row moves into the removed row's
// position).
func (s *tupleSet) reref(slot int, ref int32) {
	s.slots[slot] = s.slots[slot]&^(1<<32-1) | uint64(uint32(ref))
}

// clone deep-copies the set.
func (s *tupleSet) clone() tupleSet {
	out := tupleSet{n: s.n}
	if len(s.slots) > 0 {
		out.slots = make([]uint64, len(s.slots))
		copy(out.slots, s.slots)
	}
	return out
}

// claim fills a slot returned by a failed lookup with rowIndex+1 (ref).
func (s *tupleSet) claim(slot int, h uint64, ref int32) {
	s.slots[slot] = slotWord(h, ref)
	s.n++
}

// insertFresh claims a slot for a row known to be absent: it probes for
// the first empty slot without any row comparison. The table must have
// free capacity (call reserve/growFor first). It is the no-dedup path for
// rows distinct by construction: appends to a relation whose set is
// built, and an accumulator shard's rebuild after an eviction.
func (s *tupleSet) insertFresh(h uint64, ref int32) {
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = slotWord(h, ref)
	s.n++
}

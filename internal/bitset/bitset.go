// Package bitset provides a dense bit set over small non-negative integer
// keys. The characterization pipeline's hot loops test guard-band row
// membership once per read-back row; a dense bitset answers those probes
// with one shift-and-mask instead of a map lookup's hashing and pointer
// chasing.
package bitset

// Set is a dense bit set. The zero value and the nil pointer are both
// empty, usable sets (membership tests only; Add requires a non-nil Set).
type Set struct {
	words []uint64
	n     int
}

// New returns a set pre-sized for keys in [0, capacity).
func New(capacity int) *Set {
	if capacity < 0 {
		capacity = 0
	}
	return &Set{words: make([]uint64, (capacity+63)/64)}
}

// Of builds a set holding the given members.
func Of(members ...int) *Set {
	s := New(0)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Add inserts i, growing the set as needed. Negative keys panic.
func (s *Set) Add(i int) {
	if i < 0 {
		panic("bitset: negative key")
	}
	w := i >> 6
	if w >= len(s.words) {
		grown := make([]uint64, w+1)
		copy(grown, s.words)
		s.words = grown
	}
	mask := uint64(1) << uint(i&63)
	if s.words[w]&mask == 0 {
		s.words[w] |= mask
		s.n++
	}
}

// Contains reports membership. Nil-safe and out-of-range-safe, so filter
// structs can leave unused sets nil exactly like the maps they replaced.
func (s *Set) Contains(i int) bool {
	if s == nil || i < 0 {
		return false
	}
	w := i >> 6
	if w >= len(s.words) {
		return false
	}
	return s.words[w]&(uint64(1)<<uint(i&63)) != 0
}

// Len returns the number of members. Nil-safe.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

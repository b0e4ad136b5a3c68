// Package bloom implements the Bloom filter used by the space-efficient
// RAIDR variant in the paper's §6.2 evaluation: weak row addresses are
// inserted into an 8 Kbit filter with 6 hash functions; rows that test
// positive are refreshed at the fast rate. False positives are safe
// (extra refreshes) but erode the mechanism's benefit — which is exactly
// the dynamic Fig 23 quantifies as the weak-row population grows.
package bloom

import (
	"fmt"
	"math"

	"columndisturb/internal/sim/rng"
)

// Filter is a classic Bloom filter over uint64 keys using double hashing.
type Filter struct {
	bits   []uint64
	m      uint64 // number of bits
	k      int    // number of hash functions
	count  int    // inserted keys
	seedLo uint64
	seedHi uint64
}

// New creates a filter with m bits and k hash functions. The paper's RAIDR
// configuration is New(8192, 6).
func New(m int, k int) (*Filter, error) {
	if m < 64 {
		return nil, fmt.Errorf("bloom: need at least 64 bits, got %d", m)
	}
	if k < 1 || k > 32 {
		return nil, fmt.Errorf("bloom: k=%d out of range", k)
	}
	return &Filter{
		bits:   make([]uint64, (m+63)/64),
		m:      uint64(m),
		k:      k,
		seedLo: 0x9e3779b97f4a7c15,
		seedHi: 0xd1b54a32d192ed03,
	}, nil
}

// M returns the filter's size in bits.
func (f *Filter) M() int { return int(f.m) }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.k }

// Count returns the number of inserted keys.
func (f *Filter) Count() int { return f.count }

func (f *Filter) indexes(key uint64, fn func(idx uint64)) {
	h1 := rng.Key(f.seedLo, key)
	h2 := rng.Key(f.seedHi, key) | 1 // odd stride
	for i := 0; i < f.k; i++ {
		fn((h1 + uint64(i)*h2) % f.m)
	}
}

// Add inserts a key.
func (f *Filter) Add(key uint64) {
	f.indexes(key, func(idx uint64) {
		f.bits[idx>>6] |= 1 << (idx & 63)
	})
	f.count++
}

// Test reports whether the key may be present (false positives possible,
// false negatives impossible).
func (f *Filter) Test(key uint64) bool {
	hit := true
	f.indexes(key, func(idx uint64) {
		if f.bits[idx>>6]&(1<<(idx&63)) == 0 {
			hit = false
		}
	})
	return hit
}

// FalsePositiveRate empirically measures the false positive rate with
// `probes` keys drawn from a disjoint key space.
func (f *Filter) FalsePositiveRate(probes int, r *rng.Rand) float64 {
	if probes <= 0 {
		return 0
	}
	hits := 0
	for i := 0; i < probes; i++ {
		// Probe keys carry a tag bit far outside the insert space used by
		// the refresh mechanisms (row indices), so they are guaranteed
		// absent.
		key := uint64(1)<<63 | r.Uint64()>>1
		if f.Test(key) {
			hits++
		}
	}
	return float64(hits) / float64(probes)
}

// TheoreticalFPR returns the standard (1 − e^{−kn/m})^k false-positive
// estimate for n inserted keys.
func (f *Filter) TheoreticalFPR(n int) float64 {
	if n <= 0 {
		return 0
	}
	kn := float64(f.k) * float64(n) / float64(f.m)
	return math.Pow(1-math.Exp(-kn), float64(f.k))
}

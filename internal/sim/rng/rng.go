// Package rng provides deterministic, seedable random number generation and
// the statistical distributions used throughout the ColumnDisturb simulator.
//
// Reproducibility is a hard requirement for a characterization study: every
// per-cell fault parameter must be a pure function of (module seed, bank,
// subarray, row, column) so that experiments are repeatable bit-for-bit and
// the cell-explicit and statistical evaluation tiers agree. The package
// therefore exposes both a stream PRNG (xoshiro256**) and a stateless keyed
// hash (splitmix64 chain) for coordinate-addressed randomness.
package rng

// SplitMix64 advances and scrambles x with the splitmix64 finalizer. It is
// used both as a seeding function and as the mixing step of Key.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Key folds an arbitrary sequence of integers into a single well-mixed
// 64-bit key. It is the basis of coordinate-addressed randomness: the same
// parts always produce the same key, and adjacent coordinates produce
// decorrelated keys.
func Key(parts ...uint64) uint64 {
	return KeyFrom(0x9e3779b97f4a7c15, parts...)
}

// KeyFrom continues a Key fold from the key h of a prefix:
// Key(a..., b...) == KeyFrom(Key(a...), b...). Callers that draw many keys
// sharing a prefix hash the prefix once and pay one SplitMix64 per
// remaining part.
func KeyFrom(h uint64, parts ...uint64) uint64 {
	for _, p := range parts {
		h = SplitMix64(h ^ p)
	}
	return h
}

// Rand is a xoshiro256** pseudo-random number generator. The zero value is
// not valid; use New.
type Rand struct {
	s [4]uint64
}

// New returns a Rand seeded from the given seed via splitmix64, as
// recommended by the xoshiro authors.
func New(seed uint64) *Rand {
	var r Rand
	r.Seed(seed)
	return &r
}

// Seed re-seeds the generator deterministically from seed.
func (r *Rand) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		x = SplitMix64(x)
		r.s[i] = x
	}
	// xoshiro256** must not be seeded with the all-zero state; splitmix64 of
	// any seed never yields four consecutive zeros, but keep a cheap guard.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniform float64 in the open interval (0, 1),
// suitable for feeding into inverse CDFs and logarithms.
func (r *Rand) OpenFloat64() float64 {
	return (float64(r.Uint64()>>11) + 0.5) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire-style bounded generation with rejection on the biased zone.
	bound := uint64(n)
	for {
		v := r.Uint64()
		if v < (-bound)%bound { // reject values that would bias the modulus
			continue
		}
		return int(v % bound)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Norm returns a standard normal variate via the inverse CDF, which keeps
// the generator consumption at exactly one Uint64 per variate (important
// for reproducibility across refactorings).
func (r *Rand) Norm() float64 {
	return InvPhi(r.OpenFloat64())
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

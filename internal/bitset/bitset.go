// Package bitset implements the fixed-size bit vectors HybridGraph uses
// for per-vertex flags (active-flag and responding-flag vectors, Section
// 4.2) and for the per-Vblock destination bitmaps x_j in VE-BLOCK metadata
// (Section 4.1).
package bitset

import "sync/atomic"

// Set is a fixed-capacity bit vector. The zero value is unusable; call New.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set holding n bits, all clear.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len reports the capacity in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// SetAtomic sets bit i with a compare-and-swap loop, safe for concurrent
// SetAtomic calls on the same set — the parallel update scan's shards may
// share a word at their boundaries. Readers of bits written this way must
// be separated from the writers by a happens-before edge (the superstep
// barrier); mixing SetAtomic with the plain mutators concurrently is not
// safe.
func (s *Set) SetAtomic(i int) {
	w := &s.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// Clear clears bit i.
func (s *Set) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports bit i.
func (s *Set) Get(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count reports the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += popcount(w)
	}
	return c
}

// Any reports whether any bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Words exposes the underlying word storage. Callers serializing or
// restoring the set (checkpointing) read or overwrite it directly; the
// slice aliases the set's memory.
func (s *Set) Words() []uint64 { return s.words }

// MemBytes reports the approximate memory footprint, used by the paper's
// "metadata memory is negligible" accounting.
func (s *Set) MemBytes() int64 { return int64(len(s.words) * 8) }

func popcount(x uint64) int {
	// Hacker's Delight population count; avoids importing math/bits for a
	// single call site and keeps the package dependency-free.
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}

package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetClearGet(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 63, 64, 129} {
		if s.Get(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	s.Clear(64)
	if s.Get(64) || s.Count() != 3 {
		t.Fatalf("Clear(64) failed: get=%v count=%d", s.Get(64), s.Count())
	}
	if !s.Any() {
		t.Fatal("Any should be true")
	}
	s.Reset()
	if s.Any() || s.Count() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestCountMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		s := New(n)
		ref := map[int]bool{}
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				k := rng.Intn(n)
				s.Set(k)
				ref[k] = true
			case 1:
				k := rng.Intn(n)
				s.Clear(k)
				delete(ref, k)
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for k := range ref {
			if !s.Get(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMemBytes(t *testing.T) {
	if got := New(64).MemBytes(); got != 8 {
		t.Fatalf("MemBytes(64 bits) = %d, want 8", got)
	}
	if got := New(65).MemBytes(); got != 16 {
		t.Fatalf("MemBytes(65 bits) = %d, want 16", got)
	}
}

func TestLenAndZeroSize(t *testing.T) {
	s := New(0)
	if s.Len() != 0 || s.Any() {
		t.Fatal("empty set misbehaves")
	}
	if New(10).Len() != 10 {
		t.Fatal("Len wrong")
	}
}

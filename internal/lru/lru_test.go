package lru

import (
	"math/rand"
	"testing"
)

func TestGetPutEviction(t *testing.T) {
	c := New(2)
	c.Put(1, 10)
	c.Put(2, 20)
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %v,%v", v, ok)
	}
	// 1 is now MRU; inserting 3 evicts 2.
	c.Put(3, 30)
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("1 should survive, got %v,%v", v, ok)
	}
	if v, ok := c.Get(3); !ok || v != 30 {
		t.Fatalf("Get(3) = %v,%v", v, ok)
	}
	hits, misses, evict := c.Stats()
	if hits != 3 || misses != 1 || evict != 1 {
		t.Fatalf("stats = %d,%d,%d", hits, misses, evict)
	}
}

func TestPutUpdatesExisting(t *testing.T) {
	c := New(2)
	c.Put(1, 10)
	c.Put(1, 11)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if v, _ := c.Get(1); v != 11 {
		t.Fatalf("Get(1) = %v, want 11", v)
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := New(0)
	c.Put(1, 10)
	if _, ok := c.Get(1); ok {
		t.Fatal("zero-capacity cache should always miss")
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache should stay empty")
	}
}

func TestNeverExceedsCapacity(t *testing.T) {
	c := New(16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		c.Put(uint32(rng.Intn(100)), float64(i))
		if c.Len() > 16 {
			t.Fatalf("cache grew to %d entries", c.Len())
		}
	}
}

func TestLRUOrderIsRecencyNotInsertion(t *testing.T) {
	c := New(3)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	c.Get(1) // refresh 1: eviction order should now be 2,3,1
	c.Put(4, 4)
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted first")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 was refreshed and should survive")
	}
}

package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// A returned value is lent again after a collection, which empties a
// sync.Pool, and a full list drops what is returned to it.
func TestListKeepsValuesThroughGC(t *testing.T) {
	l := New[[]byte](2)
	a, b, c := l.Get(), l.Get(), l.Get()
	*a, *b, *c = make([]byte, 1), make([]byte, 2), make([]byte, 3)
	l.Put(a)
	l.Put(b)
	l.Put(c) // dropped: the list is full
	runtime.GC()
	runtime.GC()
	if got := l.Get(); got != b {
		t.Fatalf("first Get after GC lent %v, want the last value put (%v)", got, b)
	}
	if got := l.Get(); got != a {
		t.Fatalf("second Get lent %v, want %v", got, a)
	}
	if got := l.Get(); got == c || len(*got) != 0 {
		t.Fatalf("third Get lent %v, want a new zero value", got)
	}
}

// Values lent at once are distinct, and a warm Get and Put allocate
// nothing.
func TestListConcurrentUse(t *testing.T) {
	l := New[int](4)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 1000 {
				p := l.Get()
				*p = g*1000 + i
				runtime.Gosched()
				if *p != g*1000+i {
					t.Errorf("a lent value changed while held")
				}
				l.Put(p)
			}
		}()
	}
	wg.Wait()
	if raceEnabled {
		return
	}
	if got := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); got != 0 {
		t.Errorf("a warm Get and Put allocated %v times, want 0", got)
	}
}

// Package freelist lends scratch values from a short list that garbage
// collection leaves alone. A sync.Pool drops what it holds at every
// collection, so a job that a collection falls inside grows its buffers
// again, at an allocation cost that depends on when collections fall. A
// List keeps up to a fixed number of idle values for the life of the
// process; a value returned to a full list is left to the collector.
package freelist

import "sync"

// List lends *T values. It is safe for concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// New returns a list that keeps at most max idle values.
func New[T any](max int) *List[T] { return &List[T]{free: make([]*T, 0, max)} }

// Get returns an idle value, or a new zero T when there is none.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	p := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return p
}

// Put returns p to the list, which drops it when it is full.
func (l *List[T]) Put(p *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < cap(l.free) {
		l.free = append(l.free, p)
	}
}

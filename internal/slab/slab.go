// Package slab is the simulated world's allocator. One replication builds
// thousands of small objects — events, GRAM and LRM jobs, KOALA jobs,
// malleable runners and their stub lists — that
// all become garbage together when the replication ends. A Slab hands
// them out from fixed-size chunks, and Release hands the chunks to a
// shared Pool, so the next replication reuses the memory instead of
// allocating it afresh (and the garbage collector marking it again).
//
// Released memory is zeroed before it is handed out again, and no
// simulation result depends on an object's address, so reuse cannot
// change a result.
package slab

import (
	"sync"
	"unsafe"
)

// chunkBytes is the target size of one chunk: large enough that a
// replication draws only a few chunks per slab, small enough that a
// slab serving a handful of objects wastes little.
const chunkBytes = 16 << 10

// chunkLen is how many Ts one chunk holds.
func chunkLen[T any]() int {
	var zero T
	return max(1, chunkBytes/max(1, int(unsafe.Sizeof(zero))))
}

// chunk is one block of Ts; a slab chains the chunks it drew through
// next so that Release can hand them back without a separate list.
type chunk[T any] struct {
	items []T
	next  *chunk[T]
}

// Pool is the shared store of free chunks that the slabs of one element
// type draw from. The zero value is ready to use, and a Pool is safe for
// concurrent use: it is meant to be a package-level variable next to
// the type it stores.
type Pool[T any] struct {
	chunks sync.Pool
}

// Slab hands out zeroed *T from fixed-size chunks. A slab made by New
// draws its chunks from a Pool, and Release returns them. The zero Slab
// allocates fresh chunks, and its Release is a no-op, so an owner that
// never calls Release behaves exactly as if it had allocated from the
// heap. A Slab is not safe for concurrent use.
type Slab[T any] struct {
	pool *Pool[T]
	// last is the newest chunk drawn from the pool (earlier ones chain
	// through next); free is its unused tail.
	last *chunk[T]
	free []T
}

// New returns a slab that draws its chunks from p.
func New[T any](p *Pool[T]) Slab[T] { return Slab[T]{pool: p} }

// Alloc returns a pointer to a zeroed T. The pointer stays valid until
// Release.
func (s *Slab[T]) Alloc() *T {
	if len(s.free) == 0 {
		s.refill()
	}
	x := &s.free[0]
	s.free = s.free[1:]
	return x
}

// Run returns n contiguous zeroed Ts as a slice of length and capacity
// n, valid until Release. A run that does not fit the current chunk
// starts a new one; a run longer than a whole chunk gets its own backing
// from the heap, which Release leaves to the garbage collector.
func (s *Slab[T]) Run(n int) []T {
	if n > len(s.free) {
		if n > chunkLen[T]() {
			return make([]T, n)
		}
		s.refill()
	}
	r := s.free[:n:n]
	s.free = s.free[n:]
	return r
}

// refill makes a fresh chunk current: one from the pool when the slab
// has one, else a new allocation.
func (s *Slab[T]) refill() {
	if s.pool == nil {
		s.free = make([]T, chunkLen[T]())
		return
	}
	c, _ := s.pool.chunks.Get().(*chunk[T])
	if c == nil {
		c = &chunk[T]{items: make([]T, chunkLen[T]())}
	}
	c.next = s.last
	s.last = c
	s.free = c.items
}

// Release zeroes every chunk the slab drew and returns it to the pool.
// Every pointer and run the slab handed out is invalid afterwards: the
// memory may already belong to another slab. The slab itself stays
// usable and starts over with fresh chunks. On a zero Slab, Release is
// a no-op.
func (s *Slab[T]) Release() {
	if s.pool == nil {
		return
	}
	for c := s.last; c != nil; {
		next := c.next
		clear(c.items)
		c.next = nil
		s.pool.chunks.Put(c)
		c = next
	}
	s.last, s.free = nil, nil
}

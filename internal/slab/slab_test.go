package slab

import "testing"

type item struct {
	n    int
	p    *int
	name string
}

// TestReleaseZeroesChunks pins the reuse contract: every chunk a slab
// drew is zeroed when it goes back to the pool, so a later slab can
// never see an earlier world's fields.
func TestReleaseZeroesChunks(t *testing.T) {
	var pool Pool[item]
	s := New(&pool)
	x := 7
	for i := 0; i < 3*chunkLen[item](); i++ {
		*s.Alloc() = item{n: i + 1, p: &x, name: "stale"}
	}
	var drawn []*chunk[item]
	for c := s.last; c != nil; c = c.next {
		drawn = append(drawn, c)
	}
	if len(drawn) != 3 {
		t.Fatalf("slab drew %d chunks for 3 chunks' worth of items, want 3", len(drawn))
	}
	s.Release()
	for i, c := range drawn {
		if c.next != nil {
			t.Errorf("released chunk %d still links to another chunk", i)
		}
		for j, it := range c.items {
			if it != (item{}) {
				t.Fatalf("chunk %d item %d = %+v after Release, want zero", i, j, it)
			}
		}
	}
	// A new slab on the same pool starts from zeroed memory, whether the
	// pool kept the chunks or (as under the race detector) dropped some.
	s2 := New(&pool)
	for i := 0; i < 3*chunkLen[item](); i++ {
		if it := s2.Alloc(); *it != (item{}) {
			t.Fatalf("allocation %d from a reused pool = %+v, want zero", i, *it)
		}
	}
}

// TestZeroSlabWorksWithoutPool pins the zero value: it allocates fresh
// chunks, and its Release neither zeroes nor recycles anything.
func TestZeroSlabWorksWithoutPool(t *testing.T) {
	var s Slab[item]
	seen := map[*item]bool{}
	var all []*item
	for i := 0; i < 2*chunkLen[item]()+1; i++ {
		it := s.Alloc()
		if *it != (item{}) || seen[it] {
			t.Fatalf("allocation %d is not a fresh zero item", i)
		}
		seen[it] = true
		it.n = i + 1
		all = append(all, it)
	}
	run := s.Run(5)
	s.Release()
	for i, it := range all {
		if it.n != i+1 {
			t.Fatalf("zero slab's Release changed item %d to %+v", i, *it)
		}
	}
	if s.last != nil || len(run) != 5 {
		t.Fatal("zero slab tracked chunks or cut a short run")
	}
}

// TestRunIsContiguousAndBounded pins Run: n zeroed elements, capacity
// n, never overlapping another allocation, including runs that do not
// fit the current chunk and runs longer than a chunk.
func TestRunIsContiguousAndBounded(t *testing.T) {
	var pool Pool[*int]
	s := New(&pool)
	defer s.Release()
	n := chunkLen[*int]()
	var runs [][]*int
	for _, size := range []int{3, n - 2, 5, 2 * n, 1} {
		r := s.Run(size)
		if len(r) != size || cap(r) != size {
			t.Fatalf("Run(%d) has len %d cap %d", size, len(r), cap(r))
		}
		x := size
		for i := range r {
			if r[i] != nil {
				t.Fatalf("Run(%d)[%d] is not zero", size, i)
			}
			r[i] = &x
		}
		runs = append(runs, r)
	}
	for i, r := range runs {
		for j := range r {
			if *r[j] != len(r) {
				t.Fatalf("run %d element %d was overwritten by a later run", i, j)
			}
		}
	}
}

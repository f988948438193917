package sim

import "testing"

// TestFreeList: a Free list makes a record, reset, when it is empty, hands
// records back last in first out and resets each one put back; each record
// type has its own list per environment;
// an Arena passes a view's lists to the next world's view at the same shard
// index; and a record returned from the other shard of a two-shard world
// lands on its home list at the window barrier, one returned on its own
// shard at once.
func TestFreeList(t *testing.T) {
	type rec struct{ i int }
	type other struct{ i int }
	reset := func(r *rec) { r.i = -1 }
	resetOther := func(o *other) { o.i = 0 }

	e := NewEnv()
	f := FreeOf(e, reset)
	if FreeOf(e, reset) != f {
		t.Fatal("FreeOf made a second list for the same type")
	}
	if any(FreeOf(e, resetOther)) == any(f) || FreeOf(e, resetOther).Len() != 0 {
		t.Fatal("two record types share a list")
	}
	var recs []*rec
	for i := 0; i < 3; i++ {
		r := f.Get()
		if r == nil || r.i != -1 || f.Len() != 0 || len(f.made) != i+1 {
			t.Fatal("an empty list did not make a reset record and count it")
		}
		r.i = i + 1
		recs = append(recs, r)
	}
	for _, r := range recs {
		f.Put(r)
		if r.i != -1 {
			t.Fatal("Put did not reset the record")
		}
	}
	if f.Len() != 3 || FreeOf(e, resetOther).Len() != 0 {
		t.Fatalf("lengths %d and %d after three puts of one type", f.Len(), FreeOf(e, resetOther).Len())
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if got := f.Get(); got != recs[i] {
			t.Fatalf("Get returned record %v, want %v (last in, first out)", got, recs[i])
		}
	}
	if f.Len() != 0 || len(f.made) != 3 {
		t.Fatal("the list is not empty after three gets, or made more than three records")
	}

	// The arena keeps each view's lists at its shard index.
	a := NewArena()
	root := a.NewEnv()
	views := root.Partition(2)
	root.RegisterLookahead(10 * Microsecond)
	kept := FreeOf(views[1], reset).Get()
	FreeOf(views[1], reset).Put(kept)
	root.Shutdown()
	a.Reclaim(root)
	next := a.NewEnv()
	again := next.Partition(2)
	if FreeOf(again[0], reset).Len() != 0 || FreeOf(again[1], reset).Get() != kept {
		t.Fatal("the next world did not find the list at the shard index that left it")
	}
	next.Shutdown()

	// Returns: home is views[0]'s list.
	env := NewEnv()
	env.SetShardWorkers(2)
	views = env.Partition(2)
	env.RegisterLookahead(10 * Microsecond)
	home := FreeOf(views[0], reset)
	home.Return(views[0], views[0], home.Get())
	if home.Len() != 1 {
		t.Fatal("a return on the home shard did not land at once")
	}
	r := &rec{1}
	views[1].At(Microsecond, func() { home.Return(views[1], views[0], r) })
	// Same window as the return: both shards run it, and the list must not
	// have moved; a later window finds the record home.
	views[0].At(5*Microsecond, func() {
		if home.Len() != 1 {
			t.Error("a record returned from the other shard landed mid-window")
		}
	})
	views[0].At(50*Microsecond, func() {
		if home.Len() != 2 || home.Get() != r {
			t.Error("a record returned from the other shard was not home after the barrier")
		}
	})
	env.Run()
	if home.Len() != 1 || FreeOf(views[1], reset).Len() != 0 {
		t.Fatalf("home holds %d records and the other shard %d, want 1 and 0", home.Len(), FreeOf(views[1], reset).Len())
	}
}

// TestFreeListReclaimsEveryRecord: at Reclaim a list takes back every record
// it made, reset, whether the world put it back or not — held by the world,
// or waiting on a return lane toward its home — and keeps nothing past its
// array's end. On a partitioned world each shard index gets back exactly
// what its view's list made; so does it from a second world on the arena,
// which takes some of the kept records and makes more.
func TestFreeListReclaimsEveryRecord(t *testing.T) {
	type rec struct{ dirty bool }
	reset := func(r *rec) { r.dirty = false }
	a := NewArena()
	made := make([]map[*rec]bool, 3)
	for i := range made {
		made[i] = map[*rec]bool{}
	}
	for world, take := range []int{40, 60} {
		root := a.NewEnv()
		views := root.Partition(3)
		root.RegisterLookahead(Millisecond)
		for i, v := range views {
			f := FreeOf(v, reset)
			var held []*rec
			for j := 0; j < take+i; j++ {
				r := f.Get()
				r.dirty = true
				made[i][r] = true
				held = append(held, r)
			}
			for _, r := range held[:10] {
				f.Put(r)
			}
			// One more released on the next shard: it waits on the lane home.
			f.Return(views[(i+1)%len(views)], v, held[10])
		}
		root.Shutdown()
		a.Reclaim(root)

		for i := range views {
			var f *Free[rec]
			for _, l := range a.shards[i].layers {
				f = l.(*Free[rec])
			}
			if len(f.free) != len(made[i]) || len(made[i]) != take+i {
				t.Errorf("world %d, shard %d: %d records back, its views made %d", world, i, len(f.free), len(made[i]))
			}
			seen := map[*rec]bool{}
			for _, r := range f.free {
				switch {
				case !made[i][r]:
					t.Fatalf("world %d, shard %d got a record another view made", world, i)
				case seen[r]:
					t.Fatalf("world %d, shard %d holds a record twice", world, i)
				case r.dirty:
					t.Fatalf("world %d, shard %d holds a record that was not reset", world, i)
				}
				seen[r] = true
			}
			for _, r := range f.free[len(f.free):cap(f.free)] {
				if r != nil {
					t.Fatalf("world %d, shard %d's array names a record past its end", world, i)
				}
			}
		}
	}
}

package sim

import "testing"

// TestFreeList: a Free list hands records back last in first out and clears
// each slot it vacates; each record type has its own list per environment;
// an Arena passes a view's lists to the next world's view at the same shard
// index; and a record returned from the other shard of a two-shard world
// lands on its home list at the window barrier, one returned on its own
// shard at once.
func TestFreeList(t *testing.T) {
	type rec struct{ i int }
	type other struct{ i int }

	e := NewEnv()
	f := FreeOf[rec](e)
	if FreeOf[rec](e) != f {
		t.Fatal("FreeOf made a second list for the same type")
	}
	if any(FreeOf[other](e)) == any(f) || FreeOf[other](e).Len() != 0 {
		t.Fatal("two record types share a list")
	}
	if f.Get() != nil {
		t.Fatal("an empty list returned a record")
	}
	recs := []*rec{{1}, {2}, {3}}
	for _, r := range recs {
		f.Put(r)
	}
	if f.Len() != 3 || FreeOf[other](e).Len() != 0 {
		t.Fatalf("lengths %d and %d after three puts of one type", f.Len(), FreeOf[other](e).Len())
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if got := f.Get(); got != recs[i] {
			t.Fatalf("Get returned record %v, want %v (last in, first out)", got, recs[i])
		}
		for _, s := range f.free[len(f.free):cap(f.free)] {
			if s != nil {
				t.Fatal("the slot a Get vacated still names the record it handed out")
			}
		}
	}
	if f.Get() != nil || f.Len() != 0 {
		t.Fatal("the list is not empty after three gets")
	}

	// The arena keeps each view's lists at its shard index.
	a := NewArena()
	root := a.NewEnv()
	views := root.Partition(2)
	root.RegisterLookahead(10 * Microsecond)
	kept := &rec{7}
	FreeOf[rec](views[1]).Put(kept)
	root.Shutdown()
	a.Reclaim(root)
	next := a.NewEnv()
	again := next.Partition(2)
	if FreeOf[rec](again[0]).Len() != 0 || FreeOf[rec](again[1]).Get() != kept {
		t.Fatal("the next world did not find the list at the shard index that left it")
	}
	next.Shutdown()

	// Returns: home is views[0]'s list.
	env := NewEnv()
	env.SetShardWorkers(2)
	views = env.Partition(2)
	env.RegisterLookahead(10 * Microsecond)
	home := FreeOf[rec](views[0])
	home.Return(views[0], views[0], &rec{0})
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
	if home.Len() != 1 || FreeOf[rec](views[1]).Len() != 0 {
		t.Fatalf("home holds %d records and the other shard %d, want 1 and 0", home.Len(), FreeOf[rec](views[1]).Len())
	}
}

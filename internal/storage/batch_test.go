package storage

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"pgssi/internal/mvcc"
	"pgssi/internal/waitgraph"
)

// Tests for ReadPageBatch, the page-grained scan read entry point: the
// grouping contract (every latched item lives on the delivered page),
// result parity with the per-row Read path, latch exclusion against
// writers of a batched page, and the prediction-miss fallback under
// concurrent updates.

// batchKeys seeds n committed rows and returns their keys in order.
func batchKeys(t testing.TB, h *harness, n int) []string {
	t.Helper()
	seed := h.begin()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
		if err := h.insert(seed, keys[i], "v"+keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	h.mgr.Commit(seed.xid)
	return keys
}

func TestReadPageBatchParityWithRead(t *testing.T) {
	for _, latched := range []bool{true, false} {
		t.Run(fmt.Sprintf("latched=%v", latched), func(t *testing.T) {
			h := newHarness(t)
			keys := batchKeys(t, h, 150) // spans 3 heap pages
			// Mix in absent keys: they must arrive with Res.Tuple == nil.
			all := append(append([]string(nil), keys...), "zz-absent-1", "zz-absent-2")
			r := h.begin()
			got := make(map[string]string)
			var absent []string
			err := h.tbl.ReadPageBatch(all, r.snap, r.xid, h.mgr, latched, func(page int64, items []BatchItem) error {
				for _, it := range items {
					if all[it.Idx] != it.Key {
						t.Errorf("item %q carries input index %d, which names %q", it.Key, it.Idx, all[it.Idx])
					}
					if it.Res.Tuple == nil {
						absent = append(absent, it.Key)
						continue
					}
					if it.Res.Tuple.Page != page {
						t.Errorf("item %q delivered under page %d but lives on page %d", it.Key, page, it.Res.Tuple.Page)
					}
					if _, dup := got[it.Key]; dup {
						t.Errorf("key %q delivered twice", it.Key)
					}
					got[it.Key] = string(it.Res.Tuple.Value)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				want, ok := h.get(r, k)
				if !ok {
					t.Fatalf("per-row read lost %q", k)
				}
				if got[k] != want {
					t.Fatalf("batch read of %q = %q, per-row = %q", k, got[k], want)
				}
			}
			if len(absent) != 2 {
				t.Fatalf("absent keys delivered = %v, want the 2 seeded ones", absent)
			}
		})
	}
}

func TestReadPageBatchGroupsOncePerPage(t *testing.T) {
	h := newHarness(t)
	keys := batchKeys(t, h, 3*TuplesPerPage)
	r := h.begin()
	seen := make(map[int64]int)
	calls := 0
	err := h.tbl.ReadPageBatch(keys, r.snap, r.xid, h.mgr, true, func(page int64, items []BatchItem) error {
		calls++
		seen[page] += len(items)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sequentially inserted rows fill pages in order: one fn call per
	// page, every row accounted for.
	if calls != len(seen) {
		t.Fatalf("%d calls for %d distinct pages: a page was delivered in several batches", calls, len(seen))
	}
	total := 0
	for _, n := range seen {
		total += n
	}
	if total != len(keys) {
		t.Fatalf("delivered %d items, want %d", total, len(keys))
	}
	if calls >= len(keys)/2 {
		t.Fatalf("grouping degenerated: %d calls for %d keys", calls, len(keys))
	}
}

// TestReadPageBatchLatchExcludesWriter parks the batch callback while it
// holds a page's shared latch and asserts a writer superseding a version
// on that page blocks until the callback returns — the batched form of
// the PR 2 invariant (registration can complete before any writer of
// the page stamps a version).
func TestReadPageBatchLatchExcludesWriter(t *testing.T) {
	h := newHarness(t)
	keys := batchKeys(t, h, 2)
	r := h.begin()
	inBatch := make(chan int64, 4)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := h.tbl.ReadPageBatch(keys, r.snap, r.xid, h.mgr, true, func(page int64, items []BatchItem) error {
			inBatch <- page
			<-release
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-inBatch

	w := h.begin()
	wrote := make(chan error, 1)
	go func() {
		wrote <- h.update(w, keys[0], "clobbered")
	}()
	select {
	case err := <-wrote:
		t.Fatalf("writer finished (err=%v) while the batch held the page latch", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestReadPageBatchConcurrentUpdates races whole-range batch reads
// against updaters that continually move rows onto fresh heap pages, so
// prediction misses and the per-row fallback fire constantly. The fn
// invariant — a latched item's visible version lives on the delivered
// page — is asserted on every delivery.
func TestReadPageBatchConcurrentUpdates(t *testing.T) {
	h := newHarness(t)
	keys := batchKeys(t, h, 96)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for wk := 0; wk < 2; wk++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 7))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := h.begin()
				k := keys[rng.IntN(len(keys))]
				if err := h.update(w, k, "u"); err != nil {
					h.mgr.Abort(w.xid)
					continue
				}
				h.mgr.Commit(w.xid)
			}
		}(uint64(wk + 1))
	}
	for i := 0; i < 40; i++ {
		r := h.begin()
		n := 0
		err := h.tbl.ReadPageBatch(keys, r.snap, r.xid, h.mgr, true, func(page int64, items []BatchItem) error {
			for _, it := range items {
				if it.Res.Tuple != nil {
					n++
					if page >= 0 && it.Res.Tuple.Page != page {
						t.Errorf("latched item %q on page %d delivered under page %d", it.Key, it.Res.Tuple.Page, page)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(keys) {
			t.Fatalf("scan %d: %d visible rows, want %d (every key stays live)", i, n, len(keys))
		}
		h.mgr.Abort(r.xid)
	}
	close(stop)
	wg.Wait()
}

// TestReadPageBatchHookRunsUnderLatch pins the OnRead hook's placement
// on the batch path: it must fire with the page latch held (a writer of
// the page cannot complete while a hooked reader is parked), mirroring
// the per-row path's contract the interleaving harness relies on.
func TestReadPageBatchHookRunsUnderLatch(t *testing.T) {
	hooked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := Config{Hooks: Hooks{OnRead: func(_, key string) {
		if key == "k0000" {
			once.Do(func() {
				close(hooked)
				<-release
			})
		}
	}}}
	mgr := mvcc.NewManager()
	tbl := NewTable("t", cfg)
	wg := waitgraph.New()
	seed := mgr.Begin()
	snap := mgr.TakeSnapshot()
	if _, err := tbl.Insert("k0000", []byte("v"), seed, 0, snap, mgr, wg); err != nil {
		t.Fatal(err)
	}
	mgr.Commit(seed)

	r := mgr.Begin()
	rsnap := mgr.TakeSnapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := tbl.ReadPageBatch([]string{"k0000"}, rsnap, r, mgr, true, func(int64, []BatchItem) error { return nil })
		if err != nil {
			t.Error(err)
		}
	}()
	<-hooked

	w := mgr.Begin()
	wsnap := mgr.TakeSnapshot()
	wrote := make(chan error, 1)
	go func() {
		_, err := tbl.Update("k0000", []byte("x"), w, 0, wsnap, mgr, wg, nil)
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("writer finished (err=%v) while the hooked batch reader held the latch", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	<-done
}

package storage

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"pgssi/internal/mvcc"
)

// Tests for the tuple hints (xminHint/xmaxHint): a hint caches a
// committed fate together with its commit CSN, never an aborted or
// in-progress one, and reads answer the same with or without it.

// chain returns the version chain of key, newest first.
func (h *harness) chain(key string) []*Tuple {
	sh := h.tbl.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var vs []*Tuple
	for v := sh.rows[key]; v != nil; v = v.Older {
		vs = append(vs, v)
	}
	return vs
}

// checkHints fails the test if any hint on key's chain disagrees with the
// commit log: a set hint must name a committed xid and its CSN.
func checkHints(t *testing.T, h *harness, key string) {
	t.Helper()
	for _, v := range h.chain(key) {
		for _, c := range []struct {
			name string
			xid  mvcc.TxID
			hint mvcc.SeqNo
		}{{"xmin", v.Xmin, v.xminHint}, {"xmax", v.Xmax, v.xmaxHint}} {
			if c.hint == 0 {
				continue
			}
			st, seq := h.mgr.Status(c.xid)
			if st != mvcc.StatusCommitted || c.hint-1 != seq {
				t.Errorf("%s hint %d on %q names xid %d, which the log reports %v with CSN %d", c.name, c.hint, key, c.xid, st, seq)
			}
		}
	}
}

func hasConflict(res ReadResult, xid mvcc.TxID) bool {
	return slices.Contains(res.ConflictOut, xid)
}

// TestHintKeepsCSN is the case a boolean port of HEAP_XMIN_COMMITTED gets
// wrong: a version committed after snapshot S is hinted by a later
// snapshot's read, and must stay invisible to S — and stay in S's
// conflict-out set — afterwards.
func TestHintKeepsCSN(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	if err := h.insert(seed, "a", "1"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(seed.xid)

	s := h.begin()
	w := h.begin()
	if err := h.update(w, "a", "2"); err != nil {
		t.Fatal(err)
	}
	if err := h.insert(w, "b", "new"); err != nil {
		t.Fatal(err)
	}
	wSeq := h.mgr.Commit(w.xid)

	// A later snapshot reads both keys, hinting w's versions.
	later := h.begin()
	if v, ok := h.get(later, "a"); !ok || v != "2" {
		t.Fatalf("later snapshot reads a = %q %v, want 2", v, ok)
	}
	if v, ok := h.get(later, "b"); !ok || v != "new" {
		t.Fatalf("later snapshot reads b = %q %v, want new", v, ok)
	}
	for _, key := range []string{"a", "b"} {
		if got, want := h.chain(key)[0].xminHint, wSeq+1; got != want {
			t.Fatalf("xmin hint of %q = %d, want CSN+1 = %d", key, got, want)
		}
	}

	// Twice, so the second read also answers from the xmax hint its own
	// first read set on the superseded version.
	for round := 0; round < 2; round++ {
		res := h.tbl.Get("a", s.snap, s.xid, h.mgr)
		if res.Tuple == nil || string(res.Tuple.Value) != "1" {
			t.Fatalf("round %d: S must still read the old version of a, got %+v", round, res.Tuple)
		}
		if !hasConflict(res, w.xid) {
			t.Fatalf("round %d: S's read of a must report writer %d as conflict out, got %v", round, w.xid, res.ConflictOut)
		}
		res = h.tbl.Get("b", s.snap, s.xid, h.mgr)
		if res.Tuple != nil {
			t.Fatalf("round %d: S must not see b, inserted after its snapshot", round)
		}
		if !hasConflict(res, w.xid) {
			t.Fatalf("round %d: S's read of b must report writer %d as conflict out, got %v", round, w.xid, res.ConflictOut)
		}
	}
	if got, want := h.chain("a")[1].xmaxHint, wSeq+1; got != want {
		t.Fatalf("xmax hint of a's old version = %d, want CSN+1 = %d", got, want)
	}
	// S also cannot update a: first-updater-wins must see the commit.
	if err := h.update(s, "a", "s"); err != ErrWriteConflict {
		t.Fatalf("S's update of a = %v, want ErrWriteConflict", err)
	}
	checkHints(t, h, "a")
	checkHints(t, h, "b")
}

// TestAbortedFatesNeverHinted checks that aborted and in-progress xids are
// never cached: an aborted version is still pruned, an aborted stamp is
// still cleared, and neither leaves a hint behind.
func TestAbortedFatesNeverHinted(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	for _, k := range []string{"upd", "del"} {
		if err := h.insert(seed, k, "1"); err != nil {
			t.Fatal(err)
		}
	}
	h.mgr.Commit(seed.xid)

	w := h.begin()
	if err := h.update(w, "upd", "2"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.tbl.Delete("del", w.xid, 0, w.snap, h.mgr, h.wg, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.insert(w, "ins", "x"); err != nil {
		t.Fatal(err)
	}
	aborted := h.chain("upd")[0]
	insVersion := h.chain("ins")[0]
	deleted := h.chain("del")[0]

	// Reads while w is in progress resolve it but must not hint it.
	r := h.begin()
	for _, k := range []string{"upd", "del", "ins"} {
		h.get(r, k)
	}
	if aborted.xminHint != 0 || insVersion.xminHint != 0 || deleted.xmaxHint != 0 {
		t.Fatal("an in-progress xid was hinted")
	}

	h.mgr.Abort(w.xid)
	r2 := h.begin()
	for _, k := range []string{"upd", "del"} {
		if v, ok := h.get(r2, k); !ok || v != "1" {
			t.Fatalf("after abort, %s = %q %v, want 1", k, v, ok)
		}
	}
	if _, ok := h.get(r2, "ins"); ok {
		t.Fatal("aborted insert visible")
	}
	if aborted.xminHint != 0 || insVersion.xminHint != 0 {
		t.Fatal("an aborted xmin was hinted")
	}
	if vs := h.chain("upd"); len(vs) != 1 || vs[0] == aborted {
		t.Fatalf("aborted version not pruned: chain has %d versions", len(vs))
	}
	if vs := h.chain("ins"); len(vs) != 0 {
		t.Fatal("aborted insert not pruned")
	}
	for _, k := range []string{"upd", "del"} {
		v := h.chain(k)[0]
		if v.Xmax != 0 || v.xmaxHint != 0 {
			t.Fatalf("%s: aborted stamp not cleared (Xmax %d, hint %d)", k, v.Xmax, v.xmaxHint)
		}
		checkHints(t, h, k)
	}
}

// TestHintsAgreeWithLogTruncation reads the same rows before and after
// the commit log drops the hinted xids: hints hold real CSNs and the
// truncated log answers "committed long ago", and both must give the
// same results.
func TestHintsAgreeWithLogTruncation(t *testing.T) {
	for _, mode := range []string{"TruncateLog", "AutoTruncate"} {
		t.Run(mode, func(t *testing.T) {
			h := newHarness(t)
			seed := h.begin()
			keys := []string{"a", "b", "c", "d"}
			for _, k := range keys {
				if err := h.insert(seed, k, "0"); err != nil {
					t.Fatal(err)
				}
			}
			h.mgr.Commit(seed.xid)
			w := h.begin()
			for _, k := range keys[:2] {
				if err := h.update(w, k, "1"); err != nil {
					t.Fatal(err)
				}
			}
			h.mgr.Commit(w.xid)

			// r reads before truncation and hints a and c only; b and d
			// are first resolved from the truncated log.
			r := h.begin()
			before := map[string]ReadResult{}
			for _, k := range []string{"a", "c"} {
				before[k] = h.tbl.Get(k, r.snap, r.xid, h.mgr)
			}
			switch mode {
			case "TruncateLog":
				h.mgr.TruncateLog(r.xid)
			case "AutoTruncate":
				h.mgr.AutoTruncate()
			}
			if st, seq := h.mgr.Status(w.xid); st != mvcc.StatusCommitted || seq != mvcc.InvalidSeqNo {
				t.Fatalf("writer %d still in the log after %s: %v CSN %d", w.xid, mode, st, seq)
			}
			for _, k := range keys {
				got := h.tbl.Get(k, r.snap, r.xid, h.mgr)
				want := "0"
				if k == "a" || k == "b" {
					want = "1"
				}
				if got.Tuple == nil || string(got.Tuple.Value) != want || len(got.ConflictOut) != 0 {
					t.Fatalf("%s after %s: %+v, want value %s and no conflicts", k, mode, got, want)
				}
				if b, ok := before[k]; ok && b.Tuple != got.Tuple {
					t.Fatalf("%s: read changed across %s", k, mode)
				}
			}
			// b's new version was first resolved below the floor: its
			// hint decodes to InvalidSeqNo, visible to every snapshot.
			if got := h.chain("b")[0].xminHint; got != 1 {
				t.Fatalf("hint of a version resolved below the floor = %d, want 1", got)
			}
			if got := h.chain("a")[0].xminHint; got <= 1 {
				t.Fatalf("hint set before truncation = %d, want a real CSN + 1", got)
			}
			later := h.begin()
			for _, k := range keys {
				if a, b := h.tbl.Get(k, r.snap, r.xid, h.mgr), h.tbl.Get(k, later.snap, later.xid, h.mgr); a.Tuple != b.Tuple {
					t.Fatalf("%s: snapshots on either side of %s disagree", k, mode)
				}
			}
		})
	}
}

// TestRestampedXmaxDropsHint covers an xmax that is stamped, aborted,
// cleared and stamped again by a new updater: the version's xmax hint
// must follow the current stamp, never an earlier one.
func TestRestampedXmaxDropsHint(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	if err := h.insert(seed, "a", "0"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(seed.xid)
	base := h.chain("a")[0]

	s := h.begin() // a snapshot from before both updaters
	w1 := h.begin()
	if err := h.update(w1, "a", "w1"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Abort(w1.xid)
	w2 := h.begin()
	if err := h.update(w2, "a", "w2"); err != nil {
		t.Fatal(err)
	}
	if base.Xmax != w2.xid || base.xmaxHint != 0 {
		t.Fatalf("restamped version: Xmax %d hint %d, want Xmax %d and no hint", base.Xmax, base.xmaxHint, w2.xid)
	}
	w2Seq := h.mgr.Commit(w2.xid)

	res := h.tbl.Get("a", s.snap, s.xid, h.mgr)
	if res.Tuple != base || !hasConflict(res, w2.xid) {
		t.Fatalf("S must read the base version with w2 as conflict out, got %+v", res)
	}
	if base.xmaxHint != w2Seq+1 {
		t.Fatalf("xmax hint = %d, want w2's CSN+1 = %d", base.xmaxHint, w2Seq+1)
	}
	later := h.begin()
	if v, _ := h.get(later, "a"); v != "w2" {
		t.Fatalf("later snapshot reads %q, want w2", v)
	}
	checkHints(t, h, "a")

	// Savepoint rollback clears a stamp through the same path.
	u := h.begin()
	if _, err := h.tbl.Update("a", []byte("sub"), u.xid, 1, u.snap, h.mgr, h.wg, nil); err != nil {
		t.Fatal(err)
	}
	h.tbl.UndoSubxact("a", u.xid, 1)
	if head := h.chain("a")[0]; head.Xmax != 0 || head.xmaxHint != 0 {
		t.Fatalf("undone stamp left Xmax %d hint %d", head.Xmax, head.xmaxHint)
	}
	h.mgr.Abort(u.xid)
}

// TestHintsConcurrentRepeatableReads races readers that hold their
// snapshots against updaters that commit or abort, so versions are hinted
// by some snapshots while older ones still read them. Every reader must
// see the same values on each re-read of its snapshot, and later
// snapshots must never see a key go back.
func TestHintsConcurrentRepeatableReads(t *testing.T) {
	h := newHarness(t)
	keys := batchKeys(t, h, 16)
	for _, k := range keys {
		w := h.begin()
		if err := h.update(w, k, "0"); err != nil {
			t.Fatal(err)
		}
		h.mgr.Commit(w.xid)
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for wk := 0; wk < 2; wk++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			rng := rand.New(rand.NewPCG(seed, 11))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := h.begin()
				k := keys[rng.IntN(len(keys))]
				v, _ := h.get(w, k)
				n, _ := strconv.Atoi(v)
				if err := h.update(w, k, strconv.Itoa(n+1)); err != nil || rng.IntN(3) == 0 {
					h.mgr.Abort(w.xid)
					continue
				}
				h.mgr.Commit(w.xid)
			}
		}(uint64(wk + 1))
	}
	readAll := func(r *txn) []int {
		vals := make([]int, len(keys))
		for i, k := range keys {
			v, ok := h.get(r, k)
			if !ok {
				t.Errorf("key %s not visible", k)
			}
			vals[i], _ = strconv.Atoi(v)
		}
		return vals
	}
	for rd := 0; rd < 2; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last []int
			for i := 0; i < 200; i++ {
				r := h.begin()
				first := readAll(r)
				runtime.Gosched()
				if again := readAll(r); !slices.Equal(first, again) {
					t.Errorf("snapshot re-read changed: %v then %v", first, again)
				}
				for j := range last {
					if first[j] < last[j] {
						t.Errorf("key %s went back from %d to %d", keys[j], last[j], first[j])
					}
				}
				last = first
				h.mgr.Abort(r.xid)
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestTupleSize pins the version header at 80 bytes. Every row version
// is one heap allocation, and 80 bytes is a Go size class: one more field
// moves each version to the 96-byte class, which shows up directly in
// heap_live_mb of the kv-wire benchmark workload (200k preloaded keys).
func TestTupleSize(t *testing.T) {
	if n := unsafe.Sizeof(Tuple{}); n > 80 {
		t.Fatalf("unsafe.Sizeof(Tuple{}) = %d, want <= 80", n)
	}
}

// BenchmarkReadPageBatchUnlatched measures the non-tracking scan read
// path over 10k committed rows (each row one version, all hinted after
// the first pass) and reports the cost per row.
func BenchmarkReadPageBatchUnlatched(b *testing.B) {
	h := newHarness(b)
	keys := batchKeys(b, h, 10_000)
	r := h.begin()
	rows := 0
	count := func(_ int64, items []BatchItem) error {
		rows += len(items)
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.tbl.ReadPageBatch(keys, r.snap, r.xid, h.mgr, false, count); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

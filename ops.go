package pgssi

import (
	"errors"
	"strings"

	"pgssi/internal/btree"
	"pgssi/internal/core"
	"pgssi/internal/mvcc"
	"pgssi/internal/s2pl"
	"pgssi/internal/storage"
)

// storageTuple aliases the heap tuple type for callback signatures.
type storageTuple = storage.Tuple

// This file implements the data operations. Each operation has two
// concurrency-control paths: the MVCC path (ReadCommitted /
// RepeatableRead / Serializable, where Serializable adds the SSI hooks of
// §5.2) and the strict two-phase locking path (§8's baseline).
//
// Serializable reads and writes run their SSI lock-manager steps inside
// the storage layer's per-page read latch (storage/latch.go): reads
// insert their SIREAD lock in the storage.Table.Read callback, writes
// probe the SIREAD table in the Update/Delete check callback. Holding
// the latch across {visibility check, SIREAD insertion} on the read
// side and {xmax stamp, lock-table probe} on the write side guarantees
// every rw-antidependency on a heap tuple is seen by at least one side,
// the way PostgreSQL's buffer page lock does. MVCC conflict-out
// *flagging* may safely happen after the latch is released (scans batch
// it): once the writer is visible in the version chain the conflict can
// always be recovered from MVCC data (§5.2), and the writer stays
// tracked while any concurrent reader is active.
//
// Point reads (Get) take the latch and register per row. Scans run at
// page grain instead: storage.ReadPageBatch groups the range result by
// the heap page of each row's visible version, holds that page's shared
// latch across the whole page's visibility checks, and the engine
// registers the page's SIREAD locks in one core.AcquireTupleLockBatch
// call before the latch drops — the same atomicity unit, amortized from
// O(rows) to O(pages) lock-path acquisitions (§5.2.1's granularity
// hierarchy is what makes the page the natural batch unit; a batch
// never spans pages).

// Get returns the value of key in table visible to the transaction, or
// ErrNotFound. Under Serializable it acquires a SIREAD lock on the tuple
// (or on the index gap, if the key is absent) and flags MVCC-derived
// rw-conflicts.
func (tx *Tx) Get(table, key string) ([]byte, error) {
	if err := tx.checkUsable(false); err != nil {
		return nil, err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return nil, err
	}
	if tx.level == SerializableS2PL {
		return tx.s2plGet(ti, key)
	}
	snap := tx.snapshot()
	// Traverse the index, taking the leaf-page SIREAD lock during the
	// traversal (see btree.Lookup): PostgreSQL likewise predicate-locks
	// every leaf page an index scan reads, which is what covers the
	// gap when the key is absent.
	tracking := tx.x != nil && !tx.x.Safe()
	var onPage func(btree.PageID)
	if tracking {
		onPage = func(p btree.PageID) {
			tx.db.ssi.AcquirePageLock(tx.x, ti.pkName, int64(p))
		}
	}
	ti.pk.Lookup(key, onPage)
	var value []byte
	found := false
	// The SSI read check runs in the Read callback, i.e. under the read
	// latch of the page holding the visible version: the SIREAD lock is
	// registered before any writer of that page can stamp the tuple and
	// probe the lock table. Non-tracking reads skip the latch — they
	// register nothing, so they have nothing to lose to the window.
	err = ti.heap.Read(key, snap, tx.xid, tx.db.mvcc, tracking, func(res storage.ReadResult) error {
		if tx.x != nil {
			if res.Tuple != nil {
				if err := tx.db.ssi.CheckRead(tx.x, table, res.Tuple.Page, key, res.ConflictOut, tx.owns(table, key)); err != nil {
					return err
				}
			} else if err := tx.db.ssi.CheckScanConflicts(tx.x, res.ConflictOut); err != nil {
				return err
			}
		}
		if res.Tuple != nil {
			found = true
			value = res.Tuple.Value
		}
		return nil
	})
	if err != nil {
		return nil, mapStorageErr(err)
	}
	if !found {
		return nil, ErrNotFound
	}
	return value, nil
}

// Insert adds a new row. Fails with ErrDuplicateKey if a visible (or
// concurrently committed) row exists.
func (tx *Tx) Insert(table, key string, value []byte) error {
	if err := tx.checkUsable(true); err != nil {
		return err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return err
	}
	if tx.level == SerializableS2PL {
		return tx.s2plInsert(ti, key, value)
	}
	snap := tx.snapshot()
	_, err = ti.heap.Insert(key, value, tx.xid, tx.currentSubID(), snap, tx.db.mvcc, tx.db.wg)
	if err != nil {
		return mapStorageErr(err)
	}
	page, _, splits := ti.pk.Insert(key, "")
	for _, sp := range splits {
		tx.db.ssi.PageSplit(ti.pkName, int64(sp.Left), int64(sp.Right))
	}
	if tx.x != nil {
		// Heap inserts are checked at relation granularity (new
		// tuples cannot carry tuple locks); phantom conflicts are
		// caught by the index-page check.
		if err := tx.db.ssi.CheckWrite(tx.x, table, -1, ""); err != nil {
			return mapStorageErr(err)
		}
		if err := tx.db.ssi.CheckIndexInsert(tx.x, ti.pkName, int64(page)); err != nil {
			return mapStorageErr(err)
		}
	}
	if err := tx.insertSecondaries(ti, key, value); err != nil {
		return err
	}
	tx.recordWrite(table, key, value, false)
	return nil
}

// insertSecondaries maintains secondary-index entries for (key, value).
func (tx *Tx) insertSecondaries(ti *tableInfo, key string, value []byte) error {
	for _, si := range ti.secondaries() {
		ik, ok := si.fn(key, value)
		if !ok {
			continue
		}
		entry := ik + "\x00" + key
		page, added, splits := si.tree.Insert(entry, key)
		for _, sp := range splits {
			tx.db.ssi.PageSplit(si.name, int64(sp.Left), int64(sp.Right))
			if tx.level == SerializableS2PL {
				tx.db.s2pl.PageSplit(si.name, core.PageTarget(si.name, int64(sp.Left)), core.PageTarget(si.name, int64(sp.Right)))
			}
		}
		if !added {
			continue
		}
		if tx.x != nil {
			if err := tx.db.ssi.CheckIndexInsert(tx.x, si.name, int64(page)); err != nil {
				return mapStorageErr(err)
			}
		}
		if tx.level == SerializableS2PL {
			if err := tx.db.s2pl.Acquire(tx.xid, core.PageTarget(si.name, int64(page)), s2pl.ModeX); err != nil {
				return mapStorageErr(err)
			}
		}
	}
	return nil
}

// Put upserts: it updates key if a visible row exists and inserts it
// otherwise — the primitive the session layer (and the wire protocol's
// OpPut) exposes. A concurrent insert racing the not-found→insert step
// surfaces through the usual rules (duplicate key at this snapshot, or
// a serialization failure from first-updater-wins), so the loop below
// only follows the one benign hop.
func (tx *Tx) Put(table, key string, value []byte) error {
	err := tx.Update(table, key, value)
	if errors.Is(err, ErrNotFound) {
		return tx.Insert(table, key, value)
	}
	return err
}

// Update replaces the value of an existing row, following snapshot
// isolation's first-updater-wins rule (blocking on an in-progress writer,
// then failing with a serialization error if it committed).
func (tx *Tx) Update(table, key string, value []byte) error {
	if err := tx.checkUsable(true); err != nil {
		return err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return err
	}
	if tx.level == SerializableS2PL {
		return tx.s2plUpdate(ti, key, value, false)
	}
	snap := tx.snapshot()
	check := tx.writeCheck(table, key)
	_, serr := ti.heap.Update(key, value, tx.xid, tx.currentSubID(), snap, tx.db.mvcc, tx.db.wg, check)
	if serr != nil {
		if tx.level == ReadCommitted {
			// READ COMMITTED follows the update chain with a fresh
			// snapshot rather than failing (EvalPlanQual).
			return tx.readCommittedRetry(func() error {
				if _, e := ti.heap.Update(key, value, tx.xid, tx.currentSubID(), tx.db.mvcc.TakeSnapshot(), tx.db.mvcc, tx.db.wg, check); e != nil {
					return e
				}
				return tx.finishUpdate(ti, table, key, value)
			}, serr)
		}
		return mapStorageErr(serr)
	}
	return tx.finishUpdate(ti, table, key, value)
}

// writeCheck returns the SSI write check a serializable transaction runs
// inside the heap write path, under the superseded version's page latch
// (storage/latch.go): the finest-to-coarsest SIREAD probe, followed by
// the §7.3 drop of the transaction's own tuple SIREAD lock, which is
// safe because the tuple write lock (the just-stamped xmax) now protects
// the read. Returns nil for non-serializable transactions.
func (tx *Tx) writeCheck(table, key string) func(storage.WriteResult) error {
	if tx.x == nil {
		return nil
	}
	return func(wr storage.WriteResult) error {
		if err := tx.db.ssi.CheckWrite(tx.x, table, wr.OldPage, key); err != nil {
			return err
		}
		if !tx.inSubxact() {
			// §7.3: safe to drop our SIREAD lock once we hold the
			// tuple write lock — except inside a subtransaction,
			// where a savepoint rollback could release the write
			// lock and leave the read unprotected.
			tx.db.ssi.DropOwnTupleLock(tx.x, table, wr.OldPage, key)
		}
		return nil
	}
}

func (tx *Tx) finishUpdate(ti *tableInfo, table, key string, value []byte) error {
	if err := tx.insertSecondaries(ti, key, value); err != nil {
		return err
	}
	tx.recordWrite(table, key, value, false)
	return nil
}

// readCommittedRetry retries op with fresh snapshots a bounded number of
// times; fallback is returned if the conflict never clears.
func (tx *Tx) readCommittedRetry(op func() error, fallback error) error {
	for i := 0; i < 64; i++ {
		err := op()
		if err == nil {
			return nil
		}
		if !IsSerializationFailure(mapStorageErr(err)) {
			return mapStorageErr(err)
		}
	}
	return mapStorageErr(fallback)
}

// Delete removes the visible version of key.
func (tx *Tx) Delete(table, key string) error {
	if err := tx.checkUsable(true); err != nil {
		return err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return err
	}
	if tx.level == SerializableS2PL {
		return tx.s2plUpdate(ti, key, nil, true)
	}
	snap := tx.snapshot()
	if _, serr := ti.heap.Delete(key, tx.xid, tx.currentSubID(), snap, tx.db.mvcc, tx.db.wg, tx.writeCheck(table, key)); serr != nil {
		return mapStorageErr(serr)
	}
	tx.recordWrite(table, key, nil, true)
	return nil
}

// Scan invokes fn for every visible row with lo <= key < hi (hi == ""
// means unbounded) in key order. Returning false stops the scan. Under
// Serializable the scan SIREAD-locks every index leaf page it traverses
// (phantom protection) and every tuple it reads.
func (tx *Tx) Scan(table, lo, hi string, fn func(key string, value []byte) bool) error {
	if err := tx.checkUsable(false); err != nil {
		return err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return err
	}
	if tx.level == SerializableS2PL {
		return tx.s2plScan(ti, ti.pk, ti.pkName, lo, hi, func(entryKey, pk string) (string, bool) {
			return entryKey, true
		}, fn)
	}
	snap := tx.snapshot()
	tracking := tx.x != nil && !tx.x.Safe()
	var onPage func(btree.PageID)
	if tracking {
		onPage = func(p btree.PageID) {
			tx.db.ssi.AcquirePageLock(tx.x, ti.pkName, int64(p))
		}
	}
	var keys []string
	ti.pk.Range(lo, hi, onPage, func(k, _ string) bool {
		keys = append(keys, k)
		return true
	})
	vals, found, err := tx.readRows(ti, table, keys, snap, tracking)
	if err != nil {
		return err
	}
	for i, k := range keys {
		if found[i] && !fn(k, vals[i]) {
			break
		}
	}
	return nil
}

// readRows is the page-grained MVCC read path Scan and ScanIndex share:
// the rows of keys (which must be free of duplicates) are grouped by
// the heap page of each row's visible version (storage.ReadPageBatch),
// each page is latched once in shared mode, and the page's surviving
// SIREAD inserts go to the lock manager as ONE batch
// (core.AcquireTupleLockBatch) before the latch drops — the
// {visibility, registration} atomicity of a point read preserved per
// page, at O(pages) lock-path acquisitions instead of O(rows). Keys the
// transaction wrote itself register nothing, and once the lock manager
// reports a relation-granularity lock covers the table the remaining
// pages' registrations are skipped — the lock set only ever coarsens,
// so the answer stays true for the rest of the scan. MVCC conflict-out
// sets are flagged once per scan afterwards (safe out of the latch, see
// the file comment). vals[i] and found[i] describe keys[i]; the caller
// delivers rows after all checks, so fn never runs under a latch.
func (tx *Tx) readRows(ti *tableInfo, table string, keys []string, snap *mvcc.Snapshot, tracking bool) (vals [][]byte, found []bool, err error) {
	if len(keys) == 0 {
		return nil, nil, nil
	}
	vals = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	var conflicts []mvcc.TxID
	var lockKeys []string
	relCovered := false
	err = ti.heap.ReadPageBatch(keys, snap, tx.xid, tx.db.mvcc, tracking, func(page int64, items []storage.BatchItem) error {
		switch {
		case tx.x == nil:
		case relCovered || page < 0:
			// Covered (or an unlatched invisible-key group): nothing to
			// register, only the MVCC conflicts matter.
			for i := range items {
				conflicts = append(conflicts, items[i].Res.ConflictOut...)
			}
		default:
			lockKeys = lockKeys[:0]
			for i := range items {
				it := &items[i]
				conflicts = append(conflicts, it.Res.ConflictOut...)
				if it.Res.Tuple != nil && !tx.owns(table, it.Key) {
					lockKeys = append(lockKeys, it.Key)
				}
			}
			if len(lockKeys) > 0 {
				covered, err := tx.db.ssi.AcquireTupleLockBatch(tx.x, table, page, lockKeys)
				if err != nil {
					return err
				}
				relCovered = covered
			}
		}
		for i := range items {
			if tu := items[i].Res.Tuple; tu != nil {
				vals[items[i].Idx] = tu.Value
				found[items[i].Idx] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, mapStorageErr(err)
	}
	if tx.x != nil {
		if err := tx.db.ssi.CheckScanConflicts(tx.x, conflicts); err != nil {
			return nil, nil, mapStorageErr(err)
		}
	}
	return vals, found, nil
}

// ScanIndex scans the secondary index idx of table for lo <= indexKey <
// hi (hi == "" means unbounded), invoking fn with the primary key and
// row value. Because index entries are retained for every row version,
// each hit is rechecked against the visible row before delivery.
func (tx *Tx) ScanIndex(table, idx, lo, hi string, fn func(key string, value []byte) bool) error {
	if err := tx.checkUsable(false); err != nil {
		return err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return err
	}
	si, err := ti.index(idx)
	if err != nil {
		return err
	}
	ehi := indexEntryBound(hi)
	if tx.level == SerializableS2PL {
		return tx.s2plScan(ti, si.tree, si.name, lo, ehi, func(entryKey, pk string) (string, bool) {
			return pk, true
		}, tx.recheckWrap(ti, si, lo, hi, fn))
	}
	snap := tx.snapshot()
	tracking := tx.x != nil && !tx.x.Safe()
	var onPage func(btree.PageID)
	if tracking {
		onPage = func(p btree.PageID) {
			tx.db.ssi.AcquirePageLock(tx.x, si.name, int64(p))
		}
	}
	// Index entries are retained for every row version, so the same
	// primary key can appear under several (stale) index keys; one
	// visibility-checked read per unique pk covers them all — the
	// SIREAD lock is taken under the page latch even for hits the
	// recheck filters out (the read happened, so the version must stay
	// protected), and each hit is rechecked against the visible row it
	// resolved to.
	var hits []indexHit
	si.tree.Range(lo, ehi, onPage, func(entryKey, pk string) bool {
		ik := entryKey
		if n := len(pk); len(entryKey) > n && entryKey[len(entryKey)-n-1] == 0 {
			ik = entryKey[:len(entryKey)-n-1]
		}
		// A NUL in either bound widens the entry range (see
		// indexEntryBound); drop the extra hits before the heap read.
		if ik >= lo && (hi == "" || ik < hi) {
			hits = append(hits, indexHit{ik, pk})
		}
		return true
	})
	pks := make([]string, 0, len(hits))
	pos := make(map[string]int, len(hits))
	for _, h := range hits {
		if _, ok := pos[h.pk]; !ok {
			pos[h.pk] = len(pks)
			pks = append(pks, h.pk)
		}
	}
	vals, found, err := tx.readRows(ti, table, pks, snap, tracking)
	if err != nil {
		return err
	}
	for _, h := range hits {
		p := pos[h.pk]
		if !found[p] {
			continue
		}
		ik, ok := si.fn(h.pk, vals[p])
		if !ok || ik != h.ik {
			continue
		}
		if !fn(h.pk, vals[p]) {
			break
		}
	}
	return nil
}

// indexEntryBound translates an index-key upper bound hi into an
// exclusive bound on index entries, which are stored as ik+"\x00"+pk.
// Without a NUL in hi, ik < hi exactly when ik+"\x00"+pk < hi, so hi
// carries over. With one, entries under index keys that extend hi's
// NUL-free prefix h0 by a NUL (hi itself included) sort above hi, so
// the bound widens to h0+"\x01" and the caller filters the decoded
// index keys.
func indexEntryBound(hi string) string {
	if i := strings.IndexByte(hi, 0); i >= 0 {
		return hi[:i] + "\x01"
	}
	return hi
}

// indexHit is one secondary-index range entry: the index key it was
// filed under and the primary key it names.
type indexHit struct{ ik, pk string }

// recheckWrap adapts a user scan callback for the S2PL index-scan path,
// applying the stale-entry recheck.
func (tx *Tx) recheckWrap(ti *tableInfo, si *secondaryIndex, lo, hi string, fn func(key string, value []byte) bool) func(key string, value []byte) bool {
	return func(pk string, value []byte) bool {
		ik, ok := si.fn(pk, value)
		if !ok || ik < lo || (hi != "" && ik >= hi) {
			return true
		}
		return fn(pk, value)
	}
}

// SeqScan invokes fn for every visible row of table in unspecified order.
// Under Serializable it takes a relation-granularity SIREAD lock; under
// S2PL a shared relation lock.
func (tx *Tx) SeqScan(table string, fn func(key string, value []byte) bool) error {
	if err := tx.checkUsable(false); err != nil {
		return err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return err
	}
	if tx.level == SerializableS2PL {
		if err := tx.db.s2pl.Acquire(tx.xid, core.RelationTarget(table), s2pl.ModeS); err != nil {
			return mapStorageErr(err)
		}
		snap := tx.db.mvcc.TakeSnapshot()
		ti.heap.ForEach(snap, tx.xid, tx.db.mvcc, func(key string, tu *storageTuple) bool {
			return fn(key, tu.Value)
		})
		return nil
	}
	snap := tx.snapshot()
	if tx.x != nil && !tx.x.Safe() {
		tx.db.ssi.AcquireRelationLock(tx.x, table)
	}
	conflicts := ti.heap.ForEach(snap, tx.xid, tx.db.mvcc, func(key string, tu *storageTuple) bool {
		return fn(key, tu.Value)
	})
	if tx.x != nil {
		if err := tx.db.ssi.CheckScanConflicts(tx.x, conflicts); err != nil {
			return mapStorageErr(err)
		}
	}
	return nil
}

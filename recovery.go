package pgssi

import (
	"errors"
	"fmt"

	"pgssi/internal/mvcc"
	"pgssi/internal/wal"
)

// WAL wiring: OpenDir recovery on the way in, and the commit path's
// append-before-acknowledge on the way out. A log attached with
// AttachWAL runs the same commit path; in its FsyncOff mode walFinish
// waits for nothing.
//
// The commit path is split in three so the WAL append order is
// consistent with commit dependencies:
//
//   - walPrepare (committer goroutine, outside all locks) encodes the
//     transaction's record with a placeholder sequence number and parks
//     it in db.walPending under the transaction's xid.
//   - walCommitHook (mvcc.Config.OnCommitPublish) runs inside the MVCC
//     commit publication critical section, where the CSN is assigned and
//     the commit becomes visible: it stamps the CSN into the parked
//     record and reserves its log position. Because no snapshot can
//     observe the commit before this point, a transaction that read this
//     one's writes always reserves a later position — every log prefix
//     is dependency-closed, so recovery of any prefix yields a
//     transaction-consistent state. The publication itself runs under
//     db.walMu (see publishCommit in tx.go), so positions are reserved
//     in commit-sequence order across commit-log shards.
//   - walFinish (committer goroutine again) waits for the record's group
//     commit fsync before Commit returns — the durability contract: an
//     acknowledged commit survives a crash.
//
// Aborts (including SSI pre-commit failures) call walAbandon; the hook
// never fires for them, so nothing reaches the log.

// OpenDir opens a database backed by a durable WAL in dir, running crash
// recovery first: the newest complete checkpoint (if any) is loaded, then
// the surviving post-checkpoint log records are replayed into storage (in
// log order, stopping at the first torn or corrupt record — see
// docs/wal.md) before the DB accepts traffic. Tables recorded in the log
// are recreated automatically; secondary indexes are not logged and must
// be recreated by the caller after OpenDir, before loading.
func OpenDir(dir string, cfg Config) (*DB, error) {
	db := Open(cfg)
	wl, err := wal.OpenDir(dir, wal.Config{
		SegmentSize: cfg.WALSegmentSize,
		Fsync:       cfg.FsyncMode,
		FS:          cfg.WALFS,
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	// Load the checkpoint, then replay the suffix, both before installing
	// the log on the DB: replayed transactions run down the ordinary
	// commit path, and with db.durable still nil they do not re-log
	// themselves. Each commit record is applied as one
	// snapshot-isolation transaction, so a replayed prefix is exactly
	// the state those transactions produced.
	info, err := wl.ReplayCheckpoint(db.applyRecord)
	if err != nil && !errors.Is(err, wal.ErrNoCheckpoint) {
		wl.Close()
		db.Close()
		return nil, fmt.Errorf("pgssi: checkpoint load: %w", err)
	}
	if err := wl.Replay(db.applyRecord); err != nil {
		wl.Close()
		db.Close()
		return nil, fmt.Errorf("pgssi: WAL replay: %w", err)
	}
	// Seed the engine's sequence state from the recovered log position.
	// Replay runs replayed commits through the ordinary commit path, so
	// the CSN counter already moved — but with a checkpoint the counter
	// only counted the replayed suffix, leaving it below the recovered
	// high-water mark; a new commit would then reuse a logged CSN.
	db.mvcc.AdvanceSeq(mvcc.SeqNo(wl.RecoveredMaxSeq()))
	db.markerSeq.Store(wl.RecoveredMarkerSeq())
	db.recoveredRecords = info.Records + wl.RecoveredRecords()
	// Seed the checkpoint trigger's watermarks so a reopened database
	// does not immediately re-checkpoint state the recovered checkpoint
	// already covers (info is zero without a checkpoint).
	db.ckptLastSeq = uint64(info.Seq)
	db.ckptLastBytes = wl.Stats().BytesWritten
	db.AttachWAL(wl)
	return db, nil
}

// applyRecord folds one logged record into db through the ordinary
// commit path: a commit record as one snapshot-isolation transaction, a
// schema record as CreateTable (a no-op if the table exists), a marker
// as nothing. Recovery, checkpoint load, replica apply and replica
// re-seed all use it. A commit record without ops is malformed (the
// engine logs no write-free commit) and fails.
//
// An op on a missing table creates the table first. CreateTable
// releases db.mu before it appends its schema record, so a commit on a
// new table can reach the log ahead of that record; a log written
// before schema logging, or one whose schema record was cut off with
// its tail, has none at all.
func (db *DB) applyRecord(rec wal.Record) error {
	switch {
	case rec.SafeSnapshot:
		return nil
	case rec.CreateTable != "":
		if _, err := db.table(rec.CreateTable); err == nil {
			return nil
		}
		return db.CreateTable(rec.CreateTable)
	case len(rec.Ops) == 0:
		return fmt.Errorf("pgssi: commit record seq %d has no ops", rec.Seq)
	}
	tx, err := db.Begin(TxOptions{Isolation: RepeatableRead})
	if err != nil {
		return err
	}
	for _, op := range rec.Ops {
		if _, terr := db.table(op.Table); terr != nil {
			if cerr := db.CreateTable(op.Table); cerr != nil {
				tx.Rollback()
				return cerr
			}
		}
		if op.Delete {
			// A commit record carries each key's final version: a key
			// both inserted and deleted in one transaction logs a
			// delete for a row never applied, so ErrNotFound is the
			// one tolerable outcome.
			if derr := tx.Delete(op.Table, op.Key); derr != nil && !errors.Is(derr, ErrNotFound) {
				tx.Rollback()
				return derr
			}
		} else if perr := tx.Put(op.Table, op.Key, op.Value); perr != nil {
			tx.Rollback()
			return perr
		}
	}
	return tx.Commit()
}

// walPrepare encodes tx's commit record ahead of the commit-sequence
// assignment and parks it for walCommitHook. Returns (nil, nil) —
// nothing will be logged — when the DB has no WAL or the transaction
// wrote nothing. A record the log cannot accept (its frame would exceed
// wal.MaxRecordSize, which recovery could never read back) fails here,
// BEFORE the commit is published: the transaction must abort rather
// than commit in memory only.
func (db *DB) walPrepare(tx *Tx) (*wal.Pending, error) {
	if db.durable == nil || len(tx.writes) == 0 {
		return nil, nil
	}
	p := db.durable.PrepareRecord(db.buildWALRecord(tx))
	if err := p.Err(); err != nil {
		return nil, fmt.Errorf("pgssi: commit record: %w", err)
	}
	db.walPending.Store(tx.xid, p)
	return p, nil
}

// buildWALRecord assembles tx's commit record from its write set.
func (db *DB) buildWALRecord(tx *Tx) wal.Record {
	rec := wal.Record{Xid: tx.xid}
	for wk, vs := range tx.writes {
		last := vs[len(vs)-1]
		rec.Ops = append(rec.Ops, wal.Op{
			Table:  wk.table,
			Key:    wk.key,
			Value:  last.value,
			Delete: last.deleted,
		})
	}
	return rec
}

// walValidate checks that tx's writes can be logged at all (the frame
// size cap), without encoding or parking anything. Prepare calls it so
// a transaction that could never be made durable is rejected before the
// transaction manager records a yes-vote — CommitPrepared must not be
// the first place the oversize surfaces.
func (db *DB) walValidate(tx *Tx) error {
	if db.durable == nil || len(tx.writes) == 0 {
		return nil
	}
	if err := wal.ValidateRecord(db.buildWALRecord(tx)); err != nil {
		return fmt.Errorf("pgssi: commit record: %w", err)
	}
	return nil
}

// walCommitHook is the mvcc.Config.OnCommitPublish hook: it reserves the
// committing transaction's log position inside the publication critical
// section. Cheap by construction — patch eight bytes, append to the
// flush queue — all encoding happened in walPrepare and all I/O happens
// on the WAL flusher goroutine.
func (db *DB) walCommitHook(xid mvcc.TxID, seq mvcc.SeqNo) {
	v, ok := db.walPending.LoadAndDelete(xid)
	if !ok {
		return
	}
	db.durable.Enqueue(v.(*wal.Pending), seq)
}

// walAbandon discards a parked record whose transaction did not commit.
func (db *DB) walAbandon(tx *Tx) {
	if db.durable != nil {
		db.walPending.Delete(tx.xid)
	}
}

// walFinish completes the durable commit path after the MVCC commit
// published: wait out the group-commit fsync covering tx's record (the
// safe-snapshot marker, if the commit left the system quiescent, was
// already emitted by publishCommit; markers are never waited on). A
// durability failure is returned to the committer — the commit is
// visible in memory, but the log is poisoned and every later commit
// will fail the same way.
func (db *DB) walFinish(pend *wal.Pending) error {
	if pend == nil {
		return nil
	}
	return pend.Wait()
}

// WALRecoveredRecords reports how many records OpenDir recovered:
// checkpoint records plus the replayed post-checkpoint log suffix (0 for
// a fresh directory or a DB opened with Open).
func (db *DB) WALRecoveredRecords() int {
	return db.recoveredRecords
}

// WALStats returns the WAL's counters, whether the log is on disk
// (OpenDir) or in memory (AttachWAL); the zero value for a DB without
// one. Stats.Appends counts every record the log accepted;
// Stats.Appends/Stats.Fsyncs is the group-commit amortization ratio.
func (db *DB) WALStats() wal.Stats {
	if db.durable == nil {
		return wal.Stats{}
	}
	return db.durable.Stats()
}

// DurableWAL returns the DB's WAL: the on-disk log of OpenDir, the log
// installed by AttachWAL, or nil if the DB has none. Replicas subscribe
// to it directly (it implements wal.Stream).
func (db *DB) DurableWAL() *wal.DurableLog { return db.durable }

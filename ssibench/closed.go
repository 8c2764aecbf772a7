package main

import (
	"math/rand/v2"
	"sync"
	"time"

	"pgssi"
)

// closedWorkers is the closed loop's client count: one per CPU of the
// 2-CPU machines the benchmark is sized for.
const closedWorkers = 2

// maxAttempts bounds one transaction's retries; a transaction still
// failing after it counts as failed. Nothing near it is reached in
// practice — the loop is "retry until commit" with a safety net.
const maxAttempts = 100

// txnSpec is one closed-loop transaction, with inputs already drawn.
type txnSpec struct {
	readOnly bool
	// body runs the transaction's statements; tt and parent let it
	// record spans around its own calls.
	body func(tx *pgssi.Tx, tt *txnTrace, parent int) error
	// done, if non-nil, is told the commit call's interval once the
	// transaction has committed (the output checks order writes by it).
	done func(commitStart, commitEnd time.Time)
}

// runClosed drives closedWorkers goroutines, each running next's
// transactions back to back until d has passed. A transaction started
// before the deadline runs to its commit; its latency is measured from
// its first Begin and includes every retry.
func runClosed(db *pgssi.DB, level pgssi.IsolationLevel, d time.Duration, seed, stream uint64, tr *tracer,
	next func(rng *rand.Rand) txnSpec) tally {
	deadline := time.Now().Add(d)
	parts := make([]tally, closedWorkers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &parts[w]
			rng := rand.New(rand.NewPCG(seed, stream<<8|uint64(w)))
			for seq := uint64(1); time.Now().Before(deadline); seq++ {
				spec := next(rng)
				t.offered++
				tt := tr.txn(stream<<48 | uint64(w)<<40 | seq)
				root := tt.start("txn", -1)
				runClosedTxn(db, level, spec, t, tt, root)
				tt.stop(root)
				tt.finish()
			}
		}(w)
	}
	wg.Wait()
	var total tally
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

func runClosedTxn(db *pgssi.DB, level pgssi.IsolationLevel, spec txnSpec, t *tally, tt *txnTrace, root int) {
	start := time.Now()
	for attempt := 1; ; attempt++ {
		t.attempts++
		if spec.readOnly {
			t.roBegins++
		}
		s := tt.start("tx.begin", root)
		tx, err := db.Begin(pgssi.TxOptions{Isolation: level, ReadOnly: spec.readOnly})
		tt.stop(s)
		if err != nil {
			t.hardError(err)
			return
		}
		s = tt.start("tx.body", root)
		err = spec.body(tx, tt, s)
		tt.stop(s)
		var cs, ce time.Time
		if err == nil {
			s = tt.start("tx.commit", root)
			cs = time.Now()
			err = tx.Commit()
			ce = time.Now()
			tt.stop(s)
		} else {
			s = tt.start("tx.rollback", root)
			tx.Rollback()
			tt.stop(s)
		}
		switch {
		case err == nil:
			t.committed++
			t.commits = append(t.commits, sample{lat: ce.Sub(start), ro: spec.readOnly})
			if spec.done != nil {
				spec.done(cs, ce)
			}
			return
		case !pgssi.IsSerializationFailure(err):
			t.hardError(err)
			return
		}
		t.aborts++
		if attempt >= maxAttempts {
			t.failed++
			return
		}
	}
}

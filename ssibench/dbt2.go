package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pgssi"
	"pgssi/internal/wal"
	"pgssi/internal/workload"
)

// DBT-2++ (§8.2): the standard mix at 4 warehouses, in process, with an
// in-memory wal.Log attached as the in-memory pgssid attaches one.
// workload.DBT2.Setup loads a fixed initial database; the seed drives
// every transaction's inputs.
const (
	dbt2Warehouses = 4
	dbt2ROFraction = 0.08 // the standard mix's read-only share
)

type dbt2 struct {
	pdb       *pgssi.DB
	seed      uint64
	b         *workload.DBT2
	mix       *workload.Mix
	newOrders atomic.Int64 // committed new_order transactions
}

func setupDBT2(seed uint64, _ string) (bench, error) {
	db := pgssi.Open(pgssi.Config{})
	db.AttachWAL(wal.NewLog())
	b := workload.DefaultDBT2(dbt2Warehouses)
	if err := b.Setup(db); err != nil {
		db.Close()
		return nil, fmt.Errorf("dbt2 setup: %w", err)
	}
	return &dbt2{pdb: db, seed: seed, b: b, mix: b.Mix(dbt2ROFraction)}, nil
}

func (d *dbt2) db() *pgssi.DB { return d.pdb }
func (d *dbt2) close() error  { return d.pdb.Close() }

func (d *dbt2) run(level pgssi.IsolationLevel, dur time.Duration, stream uint64, tr *tracer) tally {
	return runClosed(d.pdb, level, dur, d.seed, stream, tr, func(rng *rand.Rand) txnSpec {
		job := d.mix.Pick(rng)
		spec := txnSpec{
			readOnly: job.ReadOnly,
			body:     func(tx *pgssi.Tx, _ *txnTrace, _ int) error { return job.Fn(tx, rng) },
		}
		if job.Name == "new_order" {
			spec.done = func(time.Time, time.Time) { d.newOrders.Add(1) }
		}
		return spec
	})
}

// check verifies TPC-C's order-id consistency under a fresh snapshot:
// each district's orders are exactly 1..next-1, and the orders added
// since setup equal the committed new_order transactions.
func (d *dbt2) check(*report) error {
	next := make(map[string]int)
	count := make(map[string]int)
	maxID := make(map[string]int)
	var scanErr error
	err := d.pdb.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true}, func(tx *pgssi.Tx) error {
		clear(next)
		clear(count)
		clear(maxID)
		err := tx.Scan("district", "", "", func(k string, v []byte) bool {
			n, err := strconv.Atoi(recField(string(v), "next"))
			if err != nil {
				scanErr = fmt.Errorf("district %s: %q", k, v)
				return false
			}
			next[k] = n
			return true
		})
		if err != nil {
			return err
		}
		// Order keys are w4|d2|o7: the district key is the first 7 bytes.
		return tx.Scan("orders", "", "", func(k string, _ []byte) bool {
			o, err := strconv.Atoi(k[8:])
			if err != nil {
				scanErr = fmt.Errorf("order key %q", k)
				return false
			}
			count[k[:7]]++
			maxID[k[:7]] = max(maxID[k[:7]], o)
			return true
		})
	})
	if err != nil {
		return err
	}
	if scanErr != nil {
		return fmt.Errorf("%w: %v", errCheck, scanErr)
	}
	added := 0
	for dk, n := range next {
		if count[dk] != n-1 || maxID[dk] != n-1 {
			return fmt.Errorf("%w: district %s has next order %d but %d orders, highest %d", errCheck, dk, n, count[dk], maxID[dk])
		}
		added += n - 1 - d.b.InitialOrders
	}
	if len(next) != dbt2Warehouses*d.b.Districts || len(count) != len(next) {
		return fmt.Errorf("%w: %d districts, %d with orders", errCheck, len(next), len(count))
	}
	if got := d.newOrders.Load(); int64(added) != got {
		return fmt.Errorf("%w: %d orders added, %d new_order commits", errCheck, added, got)
	}
	return nil
}

// recField returns the value of key in a "k=v;k=v" record.
func recField(rec, key string) string {
	for _, kv := range strings.Split(rec, ";") {
		if v, ok := strings.CutPrefix(kv, key+"="); ok {
			return v
		}
	}
	return ""
}

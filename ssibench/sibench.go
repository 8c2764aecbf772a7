package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pgssi"
)

// SIBENCH (§8.1) at the largest table of Figure 4: one table of siRows
// keys, half the transactions update one random key, half are read-only
// scans of the whole table for its lowest value. The jobs are written
// here rather than taken from internal/workload so the table's contents
// come from the seed and every query's result can be checked.
const (
	siRows  = 10_000
	siTable = "sibench"
)

// errCheck marks an output-check failure raised inside a transaction
// body; it is not retryable, so it fails the run.
var errCheck = errors.New("output check failed")

type sibench struct {
	pdb     *pgssi.DB
	seed    uint64
	initial []string // preloaded value of each key

	mu     sync.Mutex
	writes []write // committed updates

	// Scan calls and rows of traced windows, for tx.scan_ns_per_row.
	tracedScanNs, tracedScanRows atomic.Int64
}

func siKey(i int) string { return fmt.Sprintf("k%06d", i) }

func setupSIBench(seed uint64, _ string) (bench, error) {
	db := pgssi.Open(pgssi.Config{})
	s := &sibench{pdb: db, seed: seed, initial: make([]string, siRows)}
	if err := db.CreateTable(siTable); err != nil {
		db.Close()
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead}, func(tx *pgssi.Tx) error {
		for i := range s.initial {
			s.initial[i] = strconv.Itoa(rng.IntN(1_000_000))
			if err := tx.Insert(siTable, siKey(i), []byte(s.initial[i])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("sibench preload: %w", err)
	}
	return s, nil
}

func (s *sibench) db() *pgssi.DB { return s.pdb }
func (s *sibench) close() error  { return s.pdb.Close() }

func (s *sibench) run(level pgssi.IsolationLevel, d time.Duration, stream uint64, tr *tracer) tally {
	return runClosed(s.pdb, level, d, s.seed, stream, tr, func(rng *rand.Rand) txnSpec {
		if rng.IntN(2) == 0 {
			return txnSpec{readOnly: true, body: func(tx *pgssi.Tx, tt *txnTrace, parent int) error {
				_, _, err := s.query(tx, tt, parent)
				return err
			}}
		}
		k, v := siKey(rng.IntN(siRows)), strconv.Itoa(rng.IntN(1_000_000))
		return txnSpec{
			body: func(tx *pgssi.Tx, tt *txnTrace, parent int) error {
				sp := tt.start("tx.update", parent)
				err := tx.Update(siTable, k, []byte(v))
				tt.stop(sp)
				return err
			},
			done: func(cs, ce time.Time) {
				s.mu.Lock()
				s.writes = append(s.writes, write{key: k, val: v, cs: cs, ce: ce})
				s.mu.Unlock()
			},
		}
	})
}

// query scans the table for the key with the lowest value (the
// smallest such key on ties) and checks that it saw every row.
func (s *sibench) query(tx *pgssi.Tx, tt *txnTrace, parent int) (minKey string, minVal int, err error) {
	rows := 0
	var convErr error
	sp := tt.start("tx.scan", parent)
	start := time.Now()
	err = tx.Scan(siTable, "", "", func(k string, v []byte) bool {
		n, err := strconv.Atoi(string(v))
		if err != nil {
			convErr = err
			return false
		}
		if rows == 0 || n < minVal {
			minKey, minVal = k, n
		}
		rows++
		return true
	})
	tt.stop(sp)
	switch {
	case err != nil:
		return "", 0, err
	case convErr != nil:
		return "", 0, fmt.Errorf("%w: value not a number: %v", errCheck, convErr)
	case rows != siRows:
		return "", 0, fmt.Errorf("%w: query saw %d rows, want %d", errCheck, rows, siRows)
	}
	if tt != nil {
		s.tracedScanNs.Add(int64(time.Since(start)))
		s.tracedScanRows.Add(int64(rows))
	}
	return minKey, minVal, nil
}

// check verifies, under fresh snapshots once the load has stopped, that
// the table holds every row with its last committed value, and that a
// query's minimum matches one recomputed by point reads.
func (s *sibench) check(r *report) error {
	if rows := s.tracedScanRows.Load(); rows > 0 {
		r.set("tx.scan_ns_per_row", float64(s.tracedScanNs.Load())/float64(rows), "ns", fmt.Sprintf("%d rows scanned", rows))
		r.set("n.scan_rows", float64(rows), "count", "traced window")
	}
	want := possibleLast(s.writes)
	vals := make([]int, siRows)
	err := s.pdb.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true}, func(tx *pgssi.Tx) error {
		for i := range vals {
			k := siKey(i)
			v, err := tx.Get(siTable, k)
			if err != nil {
				return fmt.Errorf("get %s: %w", k, err)
			}
			if !holds(want, k, string(v), s.initial[i]) {
				return fmt.Errorf("%w: %s = %q, not its last committed value", errCheck, k, v)
			}
			if vals[i], err = strconv.Atoi(string(v)); err != nil {
				return fmt.Errorf("%w: %s = %q", errCheck, k, v)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	minKey := siKey(0)
	minVal := vals[0]
	for i, v := range vals {
		if v < minVal {
			minKey, minVal = siKey(i), v
		}
	}
	var qKey string
	var qVal int
	err = s.pdb.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable, ReadOnly: true}, func(tx *pgssi.Tx) error {
		var err error
		qKey, qVal, err = s.query(tx, nil, -1)
		return err
	})
	if err != nil {
		return err
	}
	if qKey != minKey || qVal != minVal {
		return fmt.Errorf("%w: query minimum %s=%d, point reads give %s=%d", errCheck, qKey, qVal, minKey, minVal)
	}
	return nil
}

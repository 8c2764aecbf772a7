package main

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"math/rand/v2"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pgssi"
	"pgssi/internal/server"
	"pgssi/internal/wire"
	"pgssi/internal/workload"
)

// kv-wire: the served, durable path. Poisson arrivals at kvRate each
// check out one of kvConns wire.Client connections to an in-process
// server.Server over loopback TCP. The engine is a durable OpenDir
// engine in batch-fsync mode whose checkpoint and segment sizes make
// several checkpoints and segment GCs complete in every window.
const (
	kvTable = "kv"
	kvKeys  = 200_000
	kvZipfS = 1.1
	kvRate  = 400.0 // arrivals per second; 2 connections saturate near 900
	kvConns = 2
	// kvROShare of arrivals are read-only (2 gets); the rest are
	// workload.KVJob's 2 gets + 1 put.
	kvROShare = 0.25
	// kvMaxPending caps arrivals in flight; one past it is dropped and
	// counts as failed.
	kvMaxPending  = 1024
	kvMaxAttempts = 10
	kvValueSize   = 16

	kvSegmentSize     = 32 << 10
	kvCheckpointEvery = 64 << 10
)

func kvConfig() pgssi.Config {
	return pgssi.Config{
		FsyncMode:       pgssi.FsyncBatch,
		WALSegmentSize:  kvSegmentSize,
		CheckpointEvery: kvCheckpointEvery,
	}
}

// kvScript is one arrival's generated inputs.
type kvScript struct {
	seq  uint64
	at   time.Duration // scheduled offset from the window's start
	ro   bool
	keys [3]int // two reads, then the write of a read-write arrival
	svc  time.Duration
}

type kvWire struct {
	seed uint64
	dir  string

	pdb      *pgssi.DB
	srv      *server.Server
	serveErr chan error
	clients  []*wire.Client
	pool     chan *wire.Client
	closed   bool

	mu      sync.Mutex
	writes  []write    // acknowledged writes of every window
	traced  []kvScript // committed arrivals of the traced window
	tracedD time.Duration
}

// preloadValue is key i's initial value, regenerated by the check.
func preloadValue(seed uint64, i int) string {
	x := seed ^ uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return fmt.Sprintf("p%015x", x>>4)
}

func setupKVWire(seed uint64, dir string) (_ bench, err error) {
	db, err := pgssi.OpenDir(dir, kvConfig())
	if err != nil {
		return nil, err
	}
	k := &kvWire{seed: seed, dir: dir, pdb: db, pool: make(chan *wire.Client, kvConns)}
	defer func() {
		if err != nil {
			k.close()
		}
	}()
	if err := db.CreateTable(kvTable); err != nil {
		return nil, err
	}
	const chunk = 5000
	for lo := 0; lo < kvKeys; lo += chunk {
		err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.ReadCommitted}, func(tx *pgssi.Tx) error {
			for i := lo; i < min(lo+chunk, kvKeys); i++ {
				if err := tx.Insert(kvTable, workload.LoadKey(i), []byte(preloadValue(seed, i))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	// Fold the preload into a checkpoint so every window starts from
	// the same short log.
	if _, err := db.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	k.srv = server.New(db, server.Config{})
	k.serveErr = make(chan error, 1)
	go func() { k.serveErr <- k.srv.Serve(l) }()
	for i := 0; i < kvConns; i++ {
		c, err := wire.Dial(l.Addr().String(), wire.DialOptions{Timeout: 30 * time.Second})
		if err != nil {
			return nil, err
		}
		k.clients = append(k.clients, c)
		k.pool <- c
	}
	return k, nil
}

func (k *kvWire) db() *pgssi.DB { return k.pdb }

// close stops the clients, drains the server and closes the engine.
// It is idempotent: check closes early to reopen the directory.
func (k *kvWire) close() error {
	if k.closed {
		return nil
	}
	k.closed = true
	for _, c := range k.clients {
		c.Close()
	}
	if k.srv != nil {
		k.srv.Shutdown()
		if err := <-k.serveErr; err != nil && !errors.Is(err, server.ErrServerClosed) {
			k.pdb.Close()
			return err
		}
	}
	return k.pdb.Close()
}

// run generates Poisson arrivals for d. Each arrival runs on its own
// goroutine; its latency runs from its scheduled time to its commit
// acknowledgement, so waiting for a connection and a late generator
// both count.
func (k *kvWire) run(level pgssi.IsolationLevel, d time.Duration, stream uint64, tr *tracer) tally {
	rng := rand.New(rand.NewPCG(k.seed, stream<<8|0xa))
	zipf := mrand.NewZipf(mrand.New(mrand.NewSource(int64(rng.Uint64()))), kvZipfS, 1, kvKeys-1)
	key := func() int { return int(zipf.Uint64() * 0x9e3779b97f4a7c15 % kvKeys) }
	if tr != nil {
		k.tracedD = d
	}

	var (
		mu      sync.Mutex
		total   tally
		pending atomic.Int64
		wg      sync.WaitGroup
		gen     tally
	)
	start := time.Now()
	next := start
	for seq := uint64(1); ; seq++ {
		next = next.Add(time.Duration(rng.ExpFloat64() * float64(time.Second) / kvRate))
		if next.Sub(start) >= d {
			break
		}
		sc := kvScript{seq: seq, at: next.Sub(start), ro: rng.Float64() < kvROShare}
		for i := range sc.keys {
			sc.keys[i] = key()
		}
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		dispatched := time.Now()
		gen.offered++
		if pending.Load() >= kvMaxPending {
			gen.dropped++
			gen.failed++
			continue
		}
		pending.Add(1)
		wg.Add(1)
		go func(sc kvScript, scheduled time.Time) {
			defer wg.Done()
			defer pending.Add(-1)
			t := k.arrival(level, stream, sc, scheduled, dispatched, tr)
			mu.Lock()
			total.merge(&t)
			mu.Unlock()
		}(sc, next)
	}
	wg.Wait()
	total.merge(&gen)
	return total
}

func (k *kvWire) arrival(level pgssi.IsolationLevel, stream uint64, sc kvScript, scheduled, dispatched time.Time, tr *tracer) tally {
	var t tally
	tt := tr.txn(stream<<48 | sc.seq)
	root := tt.startAt("txn", -1, scheduled)
	late := tt.startAt("gen.late", root, scheduled)
	tt.stopAt(late, dispatched)
	sp := tt.start("gen.conn_wait", root)
	c := <-k.pool
	tt.stop(sp)
	svcStart := time.Now()
	w, ok := kvAttempts(c, "wire", level, sc, fmt.Sprintf("w%x.%x", stream, sc.seq), &t, tt, root)
	end := time.Now()
	k.pool <- c
	tt.stop(root)
	tt.finish()
	if !ok {
		return t
	}
	t.committed++
	t.commits = append(t.commits, sample{lat: end.Sub(scheduled), ro: sc.ro})
	k.mu.Lock()
	if !sc.ro {
		k.writes = append(k.writes, w)
	}
	if tr != nil {
		sc.svc = end.Sub(svcStart)
		k.traced = append(k.traced, sc)
	}
	k.mu.Unlock()
	return t
}

// kvAttempts runs sc over sess until it commits, retrying serialization
// failures. Calls are spans named layer.<op>; in-process calls (layer
// "tx") are grouped under a tx.body span like the closed loops'. The
// value written is tag plus the attempt number, unique per attempt.
func kvAttempts(sess workload.Session, layer string, level pgssi.IsolationLevel, sc kvScript, tag string,
	t *tally, tt *txnTrace, root int) (write, bool) {
	for attempt := 1; ; attempt++ {
		t.attempts++
		if sc.ro {
			t.roBegins++
		}
		val := fmt.Sprintf("%-*s", kvValueSize, fmt.Sprintf("%s.%d", tag, attempt))
		w, err := kvAttempt(sess, layer, level, sc, val, tt, root)
		switch {
		case err == nil:
			return w, true
		case !pgssi.IsSerializationFailure(err):
			t.hardError(err)
			return write{}, false
		}
		t.aborts++
		if attempt >= kvMaxAttempts {
			t.failed++
			return write{}, false
		}
	}
}

func kvAttempt(sess workload.Session, layer string, level pgssi.IsolationLevel, sc kvScript, val string,
	tt *txnTrace, root int) (write, error) {
	call := func(op string, parent int, fn func() pgssi.Status) pgssi.Status {
		sp := tt.start(layer+"."+op, parent)
		st := fn()
		tt.stop(sp)
		return st
	}
	var h pgssi.Handle
	st := call("begin", root, func() (st pgssi.Status) {
		h, st = sess.Begin(level, sc.ro, false)
		return st
	})
	if !st.OK() {
		return write{}, st.Err()
	}
	body := root
	if layer == "tx" {
		body = tt.start("tx.body", root)
	}
	fail := func(err error) (write, error) {
		if layer == "tx" {
			tt.stop(body)
		}
		call("rollback", root, func() pgssi.Status { return sess.Rollback(h) })
		return write{}, err
	}
	for _, i := range sc.keys[:2] {
		st := call("get", body, func() (st pgssi.Status) {
			_, st = sess.Get(h, kvTable, workload.LoadKey(i))
			return st
		})
		if st == pgssi.StatusNotFound {
			return fail(fmt.Errorf("%w: preloaded key %s not found", errCheck, workload.LoadKey(i)))
		}
		if !st.OK() {
			return fail(st.Err())
		}
	}
	w := write{key: workload.LoadKey(sc.keys[2]), val: val}
	if !sc.ro {
		if st := call("put", body, func() pgssi.Status { return sess.Put(h, kvTable, w.key, []byte(val)) }); !st.OK() {
			return fail(st.Err())
		}
	}
	if layer == "tx" {
		tt.stop(body)
	}
	w.cs = time.Now()
	st = call("commit", root, func() pgssi.Status { return sess.Commit(h) })
	w.ce = time.Now()
	return w, st.Err()
}

// replay runs the traced window's first quarter again, same arrivals at
// the same offsets on the same number of connections, through in-process
// sessions instead of the wire. The median over arrivals of the wire
// service time minus the in-process one is the wire and server cost per
// transaction; the median keeps an fsync stall in either pass out.
func (k *kvWire) replay(tr *tracer, r *report) error {
	k.mu.Lock()
	scripts := make([]kvScript, 0, len(k.traced))
	for _, sc := range k.traced {
		if sc.at < k.tracedD/4 {
			scripts = append(scripts, sc)
		}
	}
	k.mu.Unlock()
	sort.Slice(scripts, func(i, j int) bool { return scripts[i].seq < scripts[j].seq })

	pool := make(chan *pgssi.Session, kvConns)
	for i := 0; i < kvConns; i++ {
		s := k.pdb.NewSession()
		defer s.Close()
		pool <- s
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		t     tally
		diffs []float64 // wire minus in-process service time per arrival, µs
	)
	start := time.Now()
	for _, sc := range scripts {
		if wait := time.Until(start.Add(sc.at)); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(sc kvScript) {
			defer wg.Done()
			var at tally
			tt := tr.txn(1<<62 | sc.seq)
			root := tt.startAt("replay", -1, start.Add(sc.at))
			sess := <-pool
			svcStart := time.Now()
			w, ok := kvAttempts(sess, "tx", pgssi.Serializable, sc, fmt.Sprintf("r%x", sc.seq), &at, tt, root)
			svc := time.Since(svcStart)
			pool <- sess
			tt.stop(root)
			tt.finish()
			mu.Lock()
			defer mu.Unlock()
			t.merge(&at)
			if !ok {
				return
			}
			diffs = append(diffs, float64((sc.svc-svc).Nanoseconds())/1e3)
			if !sc.ro {
				k.mu.Lock()
				k.writes = append(k.writes, w)
				k.mu.Unlock()
			}
		}(sc)
	}
	wg.Wait()
	if t.hardErrs > 0 {
		return t.firstErr
	}
	r.set("wire.overhead_us_per_txn", median(diffs), "us", fmt.Sprintf("median over %d arrivals replayed in process", len(diffs)))
	r.set("n.replayed_txns", float64(len(diffs)), "count", "")
	return nil
}

// check closes the engine, reopens its directory (the restart cost is
// wal.reopen_s) and verifies that every key holds its last acknowledged
// write, or its preloaded value if it was never written.
func (k *kvWire) check(r *report) error {
	if err := k.close(); err != nil {
		return err
	}
	start := time.Now()
	db, err := pgssi.OpenDir(k.dir, kvConfig())
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	r.set("wal.reopen_s", time.Since(start).Seconds(), "s", fmt.Sprintf("%d records recovered", db.WALRecoveredRecords()))

	want := possibleLast(k.writes)
	i := 0
	var bad error
	err = db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true}, func(tx *pgssi.Tx) error {
		i, bad = 0, nil
		return tx.Scan(kvTable, "", "", func(key string, v []byte) bool {
			switch {
			case key != workload.LoadKey(i):
				bad = fmt.Errorf("key %d is %q, want %q", i, key, workload.LoadKey(i))
			case !holds(want, key, string(v), preloadValue(k.seed, i)):
				bad = fmt.Errorf("%s = %q after reopen, not its last acknowledged value", key, v)
			}
			i++
			return bad == nil
		})
	})
	switch {
	case err != nil:
		return fmt.Errorf("scan after reopen: %w", err)
	case bad != nil:
		return fmt.Errorf("%w: %v", errCheck, bad)
	case i != kvKeys:
		return fmt.Errorf("%w: %d keys after reopen, want %d", errCheck, i, kvKeys)
	}
	return nil
}

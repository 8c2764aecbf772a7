// Command ssibench is the repository's benchmark: one command that sets
// up a workload from a seed, drives the engine for a fixed window,
// checks the outputs, and prints every metric with its unit. The last
// line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics.
//
//	ssibench --workload kv-wire|dbt2|sibench --seed N --seconds S --trace 0|1
//
// Workloads (all at Serializable; README.md has the full table):
//
//   - kv-wire: open loop over loopback TCP into a durable engine — the
//     wire, server, session, WAL group commit and checkpoint path.
//   - dbt2: closed-loop DBT-2++ in process — the SSI core (SIREAD locks,
//     the rw-antidependency graph, the commit-time check).
//   - sibench: closed-loop SIBENCH at 10,000 rows in process — the scan
//     and MVCC visibility path, with the core mostly bypassed by safe
//     snapshots.
//
// With --trace 0 the run measures one untraced window and reports the
// end-to-end metrics. With --trace 1 it measures an untraced window, a
// RepeatableRead window (the SSI/SI normalisation) and a traced window,
// in that order, and reports the per-layer metrics: span statistics
// around every call the benchmark makes into a layer, engine counter
// deltas, runtime/metrics deltas and the tracing overhead. Spans are
// written to <out>/spans-<workload>-<seed>.jsonl when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"pgssi"
	"pgssi/internal/core"
	"pgssi/internal/wal"
)

// bench is one workload's engine, set up and ready to run windows.
type bench interface {
	db() *pgssi.DB
	// run drives one window of d at level. stream selects the window's
	// input stream, so every window of a seed gets distinct but
	// reproducible inputs. tr is nil in untraced windows.
	run(level pgssi.IsolationLevel, d time.Duration, stream uint64, tr *tracer) tally
	// check verifies the outputs of every window run so far. It may
	// close and reopen the engine (kv-wire's durability check) and adds
	// any metrics that measure.
	check(r *report) error
	close() error
}

// replayer is implemented by workloads that can replay part of the
// traced window in process to isolate the transport's cost.
type replayer interface {
	replay(tr *tracer, r *report) error
}

type workloadDef struct {
	name string
	// setupReps is how many times a run sets the workload up; setup_s
	// is the median. Cheap setups repeat more to steady the median.
	setupReps int
	setup     func(seed uint64, dir string) (bench, error)
}

var workloads = []workloadDef{
	{"kv-wire", 3, setupKVWire},
	{"dbt2", 5, setupDBT2},
	{"sibench", 5, setupSIBench},
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics the JSON result carries with
// --trace 0 and --trace 1; BENCHMARK.json lists the same names. The
// latencies and the failure rates are printed by every run but carried
// only in the traced run's JSON: on a shared 2-CPU machine the
// latencies' run-to-run spread is too wide to hold a regression bound
// (fsync and GC timing set them), and the failure rates are 0 on most
// runs.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"tps", "txn/s"}, {"cpu_us_per_txn", "us"}, {"heap_live_mb", "MB"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"gen.late_ms.p99", "ms"}, {"gen.conn_wait_ms.p50", "ms"}, {"gen.conn_wait_ms.p99", "ms"},
		{"wire.begin_us.p50", "us"}, {"wire.get_us.p50", "us"}, {"wire.put_us.p50", "us"},
		{"wire.commit_us.p50", "us"}, {"wire.commit_us.p99", "us"},
		{"wire.calls_per_txn", "count"}, {"wire.overhead_us_per_txn", "us"},
		{"tx.begin_us.p50", "us"}, {"tx.body_us.p50", "us"}, {"tx.commit_us.p50", "us"},
		{"tx.commit_us.p99", "us"}, {"tx.scan_ns_per_row", "ns"},
		{"core.locks_per_txn", "count"}, {"core.locks_peak", "count"},
		{"core.promotions_per_ktxn", "count"}, {"core.conflicts_per_txn", "count"},
		{"core.dangerous_abort_share", "ratio"}, {"core.victim_abort_share", "ratio"},
		{"core.safe_snapshot_share", "ratio"}, {"core.immediately_safe_share", "ratio"},
		{"core.summarized", "count"}, {"core.ssi_si_tps_ratio", "ratio"},
		{"mvcc.commit_log_size", "count"}, {"mvcc.active_peak", "count"},
		{"wal.appends_per_fsync", "count"}, {"wal.bytes_per_txn", "B"}, {"wal.checkpoints", "count"},
		{"wal.segments_gced", "count"}, {"wal.segments_live", "count"}, {"wal.reopen_s", "s"},
		{"gc.cpu_share", "ratio"}, {"gc.cycles", "count"},
		{"alloc.bytes_per_txn", "B"}, {"alloc.objects_per_txn", "count"},
		{"trace.tps_ratio", "ratio"}, {"trace.p50_ratio", "ratio"},
		{"p50_ms", "ms"}, {"p99_ms", "ms"}, {"ro_p99_ms", "ms"}, {"abort_pct", "%"}, {"fail_pct", "%"},
		{"n.committed", "count"}, {"n.attempts", "count"}, {"n.aborts", "count"},
		{"n.ro_begins", "count"}, {"n.scan_rows", "count"}, {"n.fsyncs", "count"},
		{"n.wire_txns", "count"}, {"n.replayed_txns", "count"}, {"n.spans", "count"},
	}
	for _, s := range selfSpans {
		defs = append(defs, metricDef{"self." + s + "_us_per_txn", "us"})
	}
	return defs
}()

func main() {
	var (
		name    = flag.String("workload", "", "workload: kv-wire, dbt2 or sibench")
		seed    = flag.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds = flag.Int("seconds", 10, "length of each measured window")
		trace   = flag.Int("trace", 0, "1 = per-layer run (adds a RepeatableRead and a traced window)")
		out     = flag.String("out", ".bench_build/ssibench", "directory for data directories and span dumps")
	)
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ssibench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ssibench:", err)
		os.Exit(1)
	}
	o := runOpts{seed: *seed, d: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	res, rep, err := runWorkload(def, o)
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d go=%s gomaxprocs=%d\n",
		def.name, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0))
	for _, l := range rep.lines() {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssibench: FAILED:", err)
		fmt.Println("check: FAILED:", err)
	} else {
		fmt.Println("check: ok")
	}
	if err := appendRunLog(*out, def.name, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "ssibench:", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type runOpts struct {
	seed  uint64
	d     time.Duration
	trace bool
	out   string
}

// runWorkload sets the workload up, measures it and checks it. The
// returned result is always printable; err reports a failed check or a
// failed setup. Every window runs on an engine of its own, set up from
// the same seed, so no window inherits the state an earlier one grew.
func runWorkload(def *workloadDef, o runOpts) (result, *report, error) {
	rep := newReport()
	res := result{Metrics: map[string]metric{}}
	dir, err := os.MkdirTemp(o.out, def.name+"-")
	if err != nil {
		return res, rep, err
	}
	defer os.RemoveAll(dir)
	var total tally
	fail := func(err error) (result, *report, error) {
		res.Attempted, res.Failed = max(total.offered, 1), total.failed
		return res, rep, err
	}

	// setup_s is the median of setupReps setups; the last one serves
	// the end-to-end window.
	var setups []float64
	var b bench
	for i := 0; i < def.setupReps; i++ {
		runtime.GC()
		start := time.Now()
		bi, err := def.setup(o.seed, filepath.Join(dir, fmt.Sprint(i)))
		if err != nil {
			return fail(fmt.Errorf("setup: %w", err))
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == def.setupReps-1 {
			b = bi
			break
		}
		if err := bi.close(); err != nil {
			return fail(fmt.Errorf("setup teardown: %w", err))
		}
		if err := os.RemoveAll(filepath.Join(dir, fmt.Sprint(i))); err != nil {
			return fail(err)
		}
	}
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d setups", len(setups)))

	w, err := runEngine(b, pgssi.Serializable, o.d, 1, nil, rep, &total)
	if err != nil {
		return fail(err)
	}
	e2e(rep, w)
	rep.set("abort_pct", 100*ratio(float64(w.aborts), float64(w.attempts)), "%", fmt.Sprintf("%d of %d attempts", w.aborts, w.attempts))
	rep.set("fail_pct", 100*ratio(float64(w.failed), float64(w.offered)), "%",
		fmt.Sprintf("%d of %d offered, %d dropped at the pending cap", w.failed, w.offered, w.dropped))

	if o.trace {
		b, err := def.setup(o.seed, filepath.Join(dir, "rr"))
		if err != nil {
			return fail(fmt.Errorf("setup: %w", err))
		}
		rr, err := runEngine(b, pgssi.RepeatableRead, o.d, 2, nil, rep, &total)
		if err != nil {
			return fail(err)
		}
		if b, err = def.setup(o.seed, filepath.Join(dir, "traced")); err != nil {
			return fail(fmt.Errorf("setup: %w", err))
		}
		tr := newTracer()
		tw, err := runEngine(b, pgssi.Serializable, o.d, 3, tr, rep, &total)
		if err != nil {
			return fail(err)
		}
		layers(rep, tr, w, rr, tw)
		selfTimes(rep, tr)
		rep.set("n.spans", float64(len(tr.spans)), "count", "")
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", def.name, o.seed))
		if err := tr.dump(path, map[string]any{"workload": def.name, "seed": o.seed, "seconds": o.d.Seconds()}); err != nil {
			return fail(fmt.Errorf("span dump: %w", err))
		}
	}

	res.Attempted, res.Failed = max(total.offered, 1), total.failed
	var checkErr error
	if total.hardErrs > 0 {
		checkErr = fmt.Errorf("%d non-retryable errors, first: %v", total.hardErrs, total.firstErr)
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	for _, n := range names {
		m, ok := rep.vals[n.name]
		if !ok {
			// A layer the workload leaves idle reports zero.
			m = metric{Unit: n.unit}
		}
		res.Metrics[n.name] = m
	}
	res.Correct = checkErr == nil
	return res, rep, checkErr
}

// runEngine warms b up, measures one window at level, replays part of
// it in process when traced and the workload can, checks the outputs
// and closes b. Every transaction it runs is added to total.
func runEngine(b bench, level pgssi.IsolationLevel, d time.Duration, stream uint64, tr *tracer, rep *report, total *tally) (*window, error) {
	defer b.close()
	// Warm-up: let the heap and the engine's tables reach their working
	// size before anything is timed.
	warm := b.run(level, min(d/5, 2*time.Second), 0, nil)
	total.merge(&warm)
	var smp *sampler
	if tr != nil {
		smp = startSampler(b.db(), tr)
	}
	w := measure(b, level, d, stream, tr)
	total.merge(&w.tally)
	if smp != nil {
		w.peaks = smp.stop()
		if rp, ok := b.(replayer); ok {
			if err := rp.replay(tr, rep); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
	}
	if err := b.check(rep); err != nil {
		return nil, fmt.Errorf("%s window: %w", level, err)
	}
	return w, nil
}

// measure runs one window and the counter snapshots around it. The
// heap is collected first so every window starts from the same state.
func measure(b bench, level pgssi.IsolationLevel, d time.Duration, stream uint64, tr *tracer) *window {
	runtime.GC()
	w := &window{}
	w.before = takeSnapshot(tr)
	w.ebefore = engineSnapshot(b.db(), tr)
	start := time.Now()
	w.tally = b.run(level, d, stream, tr)
	w.elapsed = time.Since(start)
	w.after = takeSnapshot(tr)
	w.eafter = engineSnapshot(b.db(), tr)
	// A checkpoint still being written holds its image in memory. Let it
	// finish (Checkpoint joins one in flight, else writes one) so that
	// heap_live_mb counts only what the engine retains.
	if b.db().DurableWAL() != nil {
		var err error
		tr.timed("db.checkpoint", func() { _, err = b.db().Checkpoint() })
		if err != nil {
			w.hardError(fmt.Errorf("checkpoint after the window: %w", err))
		}
	}
	w.liveHeap = liveHeapAfterGC(tr)
	return w
}

// engineStats is the engine's own counters at one instant.
type engineStats struct {
	ssi       core.Stats
	wal       wal.Stats
	commitLog int
}

func engineSnapshot(db *pgssi.DB, tr *tracer) engineStats {
	var s engineStats
	tr.timed("db.ssi_stats", func() { s.ssi = db.SSIStats() })
	tr.timed("db.wal_stats", func() { s.wal = db.WALStats() })
	tr.timed("db.commit_log_size", func() { s.commitLog = db.CommitLogSize() })
	return s
}

// sampler polls the engine during the traced window for the peaks that
// end-of-window counters cannot show.
type sampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peaks peaks
}

type peaks struct{ locks, active int64 }

func startSampler(db *pgssi.DB, tr *tracer) *sampler {
	s := &sampler{stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
			var st core.Stats
			var active int
			tr.timed("db.ssi_stats", func() { st = db.SSIStats() })
			tr.timed("db.active_transactions", func() { active = db.ActiveTransactions() })
			s.peaks.locks = max(s.peaks.locks, st.LocksCurrent)
			s.peaks.active = max(s.peaks.active, int64(active))
		}
	}()
	return s
}

func (s *sampler) stop() peaks {
	close(s.stopc)
	s.wg.Wait()
	return s.peaks
}

// e2e sets the end-to-end metrics of the untraced window.
func e2e(rep *report, w *window) {
	n := fmt.Sprintf("%d committed in %.2fs", w.committed, w.elapsed.Seconds())
	// p50_ms covers read-write transactions only: on SIBENCH's 50/50
	// mix a median over both classes flips between the two populations.
	rw, ro := lats(w.commits, false), lats(w.commits, true)
	all := append(slices.Clone(rw), ro...)
	rep.set("tps", w.tps(), "txn/s", n)
	rep.set("p50_ms", quantile(rw, 0.50), "ms", fmt.Sprintf("%d read-write samples", len(rw)))
	rep.set("p99_ms", quantile(all, 0.99), "ms", fmt.Sprintf("%d samples", len(all)))
	rep.set("ro_p99_ms", quantile(ro, 0.99), "ms", fmt.Sprintf("%d read-only samples", len(ro)))
	rep.set("cpu_us_per_txn", ratio(float64((w.after.cpu-w.before.cpu).Microseconds()), float64(w.committed)), "us", n)
	rep.set("heap_live_mb", float64(w.liveHeap)/1e6, "MB", "live after forced GC")
}

// layers sets the per-layer metrics of the traced run.
func layers(rep *report, tr *tracer, w, rr, tw *window) {
	st := tr.summarize()
	dur := func(name string, q float64, unit time.Duration) float64 {
		s := st[name]
		if s == nil {
			return 0
		}
		return quantile(s.durs, q) * float64(time.Millisecond) / float64(unit)
	}
	count := func(name string) int {
		if s := st[name]; s != nil {
			return s.count
		}
		return 0
	}
	committed := float64(tw.committed)
	cbase := fmt.Sprintf("%d committed", tw.committed)
	spans := func(name string) string { return fmt.Sprintf("%d spans", count(name)) }

	rep.set("gen.late_ms.p99", dur("gen.late", 0.99, time.Millisecond), "ms", spans("gen.late"))
	rep.set("gen.conn_wait_ms.p50", dur("gen.conn_wait", 0.50, time.Millisecond), "ms", spans("gen.conn_wait"))
	rep.set("gen.conn_wait_ms.p99", dur("gen.conn_wait", 0.99, time.Millisecond), "ms", spans("gen.conn_wait"))
	for _, op := range []string{"begin", "get", "put", "commit"} {
		rep.set("wire."+op+"_us.p50", dur("wire."+op, 0.50, time.Microsecond), "us", spans("wire."+op))
	}
	rep.set("wire.commit_us.p99", dur("wire.commit", 0.99, time.Microsecond), "us", spans("wire.commit"))
	wireCalls := 0
	for _, op := range []string{"begin", "get", "put", "commit", "rollback"} {
		wireCalls += count("wire." + op)
	}
	wireTxns := 0
	if wireCalls > 0 {
		wireTxns = int(tw.committed)
	}
	rep.set("wire.calls_per_txn", ratio(float64(wireCalls), float64(wireTxns)), "count", fmt.Sprintf("%d calls, %d committed", wireCalls, wireTxns))
	rep.set("n.wire_txns", float64(wireTxns), "count", "")

	rep.set("tx.begin_us.p50", dur("tx.begin", 0.50, time.Microsecond), "us", spans("tx.begin"))
	rep.set("tx.body_us.p50", dur("tx.body", 0.50, time.Microsecond), "us", spans("tx.body"))
	rep.set("tx.commit_us.p50", dur("tx.commit", 0.50, time.Microsecond), "us", spans("tx.commit"))
	rep.set("tx.commit_us.p99", dur("tx.commit", 0.99, time.Microsecond), "us", spans("tx.commit"))

	a, b := tw.ebefore.ssi, tw.eafter.ssi
	aborts := float64(tw.aborts)
	abase := fmt.Sprintf("%d serialization failures", tw.aborts)
	rep.set("core.locks_per_txn", ratio(float64(b.LocksAcquired-a.LocksAcquired), committed), "count", cbase)
	rep.set("core.locks_peak", float64(tw.peaks.locks), "count", "sampled every 10ms")
	promos := b.TuplePromotions - a.TuplePromotions + b.PagePromotions - a.PagePromotions + b.CapacityPromotions - a.CapacityPromotions
	rep.set("core.promotions_per_ktxn", 1000*ratio(float64(promos), committed), "count", cbase)
	rep.set("core.conflicts_per_txn", ratio(float64(b.ConflictsFlagged-a.ConflictsFlagged), committed), "count", cbase)
	rep.set("core.dangerous_abort_share", ratio(float64(b.DangerousAborts-a.DangerousAborts), aborts), "ratio", abase+"; the rest are first-updater-wins")
	rep.set("core.victim_abort_share", ratio(float64(b.VictimAborts-a.VictimAborts), aborts), "ratio", abase)
	ro := float64(tw.roBegins)
	robase := fmt.Sprintf("%d read-only begins", tw.roBegins)
	rep.set("core.safe_snapshot_share", ratio(float64(b.SafeSnapshots-a.SafeSnapshots), ro), "ratio", robase)
	rep.set("core.immediately_safe_share", ratio(float64(b.ImmediatelySafe-a.ImmediatelySafe), ro), "ratio", robase)
	rep.set("core.summarized", float64(b.Summarized-a.Summarized), "count", "")
	rep.set("core.ssi_si_tps_ratio", ratio(w.tps(), rr.tps()), "ratio",
		fmt.Sprintf("%d SSI and %d RepeatableRead commits, untraced", w.committed, rr.committed))

	rep.set("mvcc.commit_log_size", float64(tw.eafter.commitLog), "count", "at window end")
	rep.set("mvcc.active_peak", float64(tw.peaks.active), "count", "sampled every 10ms")

	wa, wb := tw.ebefore.wal, tw.eafter.wal
	fsyncs := wb.Fsyncs - wa.Fsyncs
	rep.set("wal.appends_per_fsync", ratio(float64(wb.Appends-wa.Appends), float64(fsyncs)), "count", fmt.Sprintf("%d fsyncs", fsyncs))
	rep.set("wal.bytes_per_txn", ratio(float64(wb.BytesWritten-wa.BytesWritten), committed), "B", cbase)
	rep.set("wal.checkpoints", float64(wb.Checkpoints-wa.Checkpoints), "count", "")
	rep.set("wal.segments_gced", float64(wb.SegmentsGCed-wa.SegmentsGCed), "count", "")
	rep.set("wal.segments_live", float64(wb.Segments), "count", "at window end")
	rep.set("n.fsyncs", float64(fsyncs), "count", "")

	ra, rb := tw.before, tw.after
	rep.set("gc.cpu_share", ratio(rb.gcCPU-ra.gcCPU, rb.totalCPU-ra.totalCPU), "ratio", "runtime/metrics CPU estimate")
	rep.set("gc.cycles", float64(rb.gcCycles-ra.gcCycles), "count", "")
	rep.set("alloc.bytes_per_txn", ratio(float64(rb.allocB-ra.allocB), committed), "B", cbase)
	rep.set("alloc.objects_per_txn", ratio(float64(rb.allocObjs-ra.allocObjs), committed), "count", cbase)

	rep.set("trace.tps_ratio", ratio(tw.tps(), w.tps()), "ratio", fmt.Sprintf("traced %.1f vs untraced %.1f txn/s", tw.tps(), w.tps()))
	tp50, up50 := quantile(lats(tw.commits, false), 0.5), quantile(lats(w.commits, false), 0.5)
	rep.set("trace.p50_ratio", ratio(tp50, up50), "ratio", fmt.Sprintf("traced %.3f vs untraced %.3f ms", tp50, up50))

	rep.set("n.committed", committed, "count", "traced window")
	rep.set("n.attempts", float64(tw.attempts), "count", "traced window")
	rep.set("n.aborts", aborts, "count", "traced window")
	rep.set("n.ro_begins", ro, "count", "traced window")
}

// selfSpans are the span names whose self time the traced run reports.
var selfSpans = []string{
	"txn", "replay", "gen.late", "gen.conn_wait",
	"wire.begin", "wire.get", "wire.put", "wire.commit", "wire.rollback",
	"tx.begin", "tx.body", "tx.get", "tx.put", "tx.scan", "tx.update", "tx.commit", "tx.rollback",
}

// selfTimes reports, per span name, the self time per transaction that
// made the call: the span's duration minus what its children cover.
func selfTimes(rep *report, tr *tracer) {
	st := tr.summarize()
	txns := make(map[string]map[uint64]struct{})
	for _, s := range tr.spans {
		if s.Txn == 0 {
			continue
		}
		m := txns[s.Name]
		if m == nil {
			m = make(map[uint64]struct{})
			txns[s.Name] = m
		}
		m[s.Txn] = struct{}{}
	}
	for _, name := range selfSpans {
		var self time.Duration
		if s := st[name]; s != nil {
			self = s.self
		}
		n := len(txns[name])
		rep.set("self."+name+"_us_per_txn", ratio(float64(self.Microseconds()), float64(n)), "us", fmt.Sprintf("over %d txns", n))
	}
}

// appendRunLog records the run, seed included, so any claim can be
// re-checked on a seed not used while making it.
func appendRunLog(out, name string, o runOpts, res result) error {
	f, err := os.OpenFile(filepath.Join(out, "runs.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(map[string]any{
		"time": time.Now().UTC().Format(time.RFC3339), "workload": name, "seed": o.seed,
		"seconds": o.d.Seconds(), "trace": o.trace, "result": res,
	})
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

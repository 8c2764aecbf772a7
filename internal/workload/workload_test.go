package workload

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"pgssi"
)

func shortOpts(level pgssi.IsolationLevel) RunOptions {
	return RunOptions{Level: level, Workers: 4, Duration: 300 * time.Millisecond, Seed: 42}
}

func TestMixWeightsAndPick(t *testing.T) {
	m := NewMix().
		Add(0.75, Job{Name: "a", ReadOnly: true}).
		Add(0.25, Job{Name: "b"})
	if got := m.ReadOnlyFraction(); got != 0.75 {
		t.Fatalf("ReadOnlyFraction = %v, want 0.75", got)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[m.Pick(rng).Name]++
	}
	if counts["a"] < 7000 || counts["a"] > 8000 {
		t.Fatalf("weighted pick skewed: %v", counts)
	}
}

func TestSIBenchRunsCleanAtAllLevels(t *testing.T) {
	for _, level := range []pgssi.IsolationLevel{
		pgssi.RepeatableRead, pgssi.Serializable, pgssi.SerializableS2PL,
	} {
		b := SIBench{Rows: 50}
		res, err := b.Run(pgssi.Config{}, shortOpts(level))
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if res.Errors != 0 {
			t.Fatalf("%v: %d hard errors", level, res.Errors)
		}
		if res.Committed == 0 {
			t.Fatalf("%v: no transactions committed", level)
		}
	}
}

func TestSIBenchNoROOptStillCorrect(t *testing.T) {
	b := SIBench{Rows: 30}
	res, err := b.Run(pgssi.Config{DisableReadOnlyOpt: true}, shortOpts(pgssi.Serializable))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d hard errors", res.Errors)
	}
}

func TestDBT2RunsCleanAtAllLevels(t *testing.T) {
	for _, level := range []pgssi.IsolationLevel{
		pgssi.RepeatableRead, pgssi.Serializable, pgssi.SerializableS2PL,
	} {
		db := pgssi.Open(pgssi.Config{})
		b := DefaultDBT2(1)
		b.Customers = 30
		b.Items = 100
		if err := b.Setup(db); err != nil {
			t.Fatal(err)
		}
		res := RunClosedLoop(db, b.Mix(0.08), shortOpts(level))
		if res.Errors != 0 {
			t.Fatalf("%v: %d hard errors", level, res.Errors)
		}
		if res.Committed == 0 {
			t.Fatalf("%v: nothing committed", level)
		}
	}
}

func TestDBT2AllTransactionTypesExecute(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	b := DefaultDBT2(1)
	b.Customers = 20
	b.Items = 50
	if err := b.Setup(db); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	for name, fn := range map[string]func(*pgssi.Tx, *rand.Rand) error{
		"new_order":    b.NewOrder,
		"payment":      b.Payment,
		"order_status": b.OrderStatus,
		"delivery":     b.Delivery,
		"stock_level":  b.StockLevel,
		"credit_check": b.CreditCheck,
	} {
		for attempt := 0; ; attempt++ {
			tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
			if err != nil {
				t.Fatal(err)
			}
			err = fn(tx, rng)
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Rollback()
			}
			if err == nil {
				break
			}
			if !pgssi.IsSerializationFailure(err) || attempt > 10 {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestDBT2SerializationFailureRateIsLow(t *testing.T) {
	// §8.2: "in all cases, the serialization failure rate was under
	// 0.25%" on the paper's disk-bound runs with 25 warehouses; this
	// dataset has 2, so every district row is far hotter.
	//
	// The bound covers only the aborts SSI adds: transactions doomed by
	// a dangerous structure (core.Stats.DangerousAborts), as a share of
	// all attempts. The other failures are snapshot isolation's own
	// first-updater-wins conflicts, plus a few deadlocks. RepeatableRead
	// pays them too (its DangerousAborts stay 0), and their share grows
	// with how many of the 4 workers really run in parallel: RR fails
	// 1.4–1.8% at GOMAXPROCS=1, 3.4–7.3% at 2 or 4, and 8–9% under the
	// race detector. They are not SSI's cost, so they are logged but not
	// bounded. The SSI share measured 0.6–7.2% at GOMAXPROCS 1 to 4 and
	// under -race; the 10% bound guards against an order-of-magnitude
	// regression, not scheduler noise.
	db := pgssi.Open(pgssi.Config{})
	b := DefaultDBT2(2)
	if err := b.Setup(db); err != nil {
		t.Fatal(err)
	}
	before := db.SSIStats()
	res := RunClosedLoop(db, b.Mix(0.08), RunOptions{
		Level: pgssi.Serializable, Workers: 4, Duration: time.Second, Seed: 7,
	})
	dangerous := db.SSIStats().DangerousAborts - before.DangerousAborts
	var ssiRate, restRate float64
	if total := res.Committed + res.Aborted; total > 0 {
		ssiRate = float64(dangerous) / float64(total)
		restRate = float64(res.Aborted-dangerous) / float64(total)
	}
	t.Logf("GOMAXPROCS=%d: %d committed, %d aborted: total %.2f%%, dangerous structure %.2f%%, first-updater-wins and deadlock %.2f%%",
		runtime.GOMAXPROCS(0), res.Committed, res.Aborted,
		100*res.FailureRate, 100*ssiRate, 100*restRate)
	if res.Errors != 0 {
		t.Fatalf("%d hard errors", res.Errors)
	}
	if ssiRate > 0.10 {
		t.Fatalf("SSI dangerous-structure abort rate %.2f%% unexpectedly high", 100*ssiRate)
	}
}

func TestRUBiSRunsCleanAtAllLevels(t *testing.T) {
	for _, level := range []pgssi.IsolationLevel{
		pgssi.RepeatableRead, pgssi.Serializable, pgssi.SerializableS2PL,
	} {
		db := pgssi.Open(pgssi.Config{})
		r := &RUBiS{Users: 100, Items: 200, Categories: 5}
		if err := r.Setup(db); err != nil {
			t.Fatal(err)
		}
		res := RunClosedLoop(db, r.Mix(), shortOpts(level))
		if res.Errors != 0 {
			t.Fatalf("%v: %d hard errors", level, res.Errors)
		}
		if res.Committed == 0 {
			t.Fatalf("%v: nothing committed", level)
		}
	}
}

func TestDeferrableProbeUnderLoad(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	b := DefaultDBT2(1)
	b.Customers = 30
	b.Items = 100
	if err := b.Setup(db); err != nil {
		t.Fatal(err)
	}
	res, bg := MeasureDeferrable(db, b.Mix(0.08), RunOptions{
		Level: pgssi.Serializable, Workers: 4, Duration: 800 * time.Millisecond, Seed: 9,
	}, 50*time.Millisecond, func(tx *pgssi.Tx) error {
		_, err := tx.Get("warehouse", wKey(1))
		return err
	})
	if bg.Errors != 0 {
		t.Fatalf("%d hard errors in background load", bg.Errors)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no deferrable samples collected")
	}
	if res.Max > 5*time.Second {
		t.Fatalf("deferrable latency unreasonable: %v", res.Max)
	}
}

func TestIODelayConfigurationSlowsRuns(t *testing.T) {
	fast := SIBench{Rows: 40}
	fres, err := fast.Run(pgssi.Config{}, shortOpts(pgssi.RepeatableRead))
	if err != nil {
		t.Fatal(err)
	}
	slow := SIBench{Rows: 40}
	sres, err := slow.Run(pgssi.Config{IODelay: 200 * time.Microsecond, CacheMissRatio: 0.5},
		shortOpts(pgssi.RepeatableRead))
	if err != nil {
		t.Fatal(err)
	}
	if sres.Throughput >= fres.Throughput {
		t.Fatalf("simulated I/O should reduce throughput: fast=%.0f slow=%.0f",
			fres.Throughput, sres.Throughput)
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{5, 1, 3, 2, 4}
	if p := Percentile(ds, 50); p != 3 {
		t.Fatalf("median = %v, want 3", p)
	}
	if p := Percentile(ds, 100); p != 5 {
		t.Fatalf("max = %v, want 5", p)
	}
	if p := Percentile(nil, 50); p != 0 {
		t.Fatalf("empty percentile = %v, want 0", p)
	}
}

func TestLifecycleMixRunsEmptyTransactions(t *testing.T) {
	m := LifecycleMix(0.25)
	if f := m.ReadOnlyFraction(); f < 0.24 || f > 0.26 {
		t.Fatalf("read-only fraction = %v, want 0.25", f)
	}
	db := pgssi.Open(pgssi.Config{})
	res := RunClosedLoop(db, m, RunOptions{
		Level: pgssi.Serializable, Workers: 4, Duration: 50 * time.Millisecond, Seed: 99,
	})
	if res.Errors > 0 {
		t.Fatalf("%d hard errors from empty lifecycle transactions", res.Errors)
	}
	if res.Committed == 0 {
		t.Fatal("no lifecycle transactions committed")
	}
	if res.Aborted > 0 {
		t.Fatalf("empty transactions can never conflict, got %d serialization failures", res.Aborted)
	}
}

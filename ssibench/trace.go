package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// surface. Spans of one transaction share txn; spans outside any
// transaction (stats sampling) carry txn 0.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index in the trace, -1 for a root
	Txn    uint64 `json:"txn"`
}

// tracer keeps every span of a traced window in memory; dump writes
// them out when the run ends. A nil *tracer records nothing, so the
// untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// txnTrace buffers one transaction's spans without locking; finish
// moves them into the tracer. A nil *txnTrace records nothing.
type txnTrace struct {
	tr    *tracer
	txn   uint64
	spans []span
}

func (tr *tracer) txn(id uint64) *txnTrace {
	if tr == nil {
		return nil
	}
	return &txnTrace{tr: tr, txn: id, spans: make([]span, 0, 8)}
}

// start opens a span under parent (a value start returned, or -1) and
// returns its handle.
func (t *txnTrace) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.startAt(name, parent, time.Now())
}

// startAt opens a span whose start is an earlier instant, such as an
// open-loop arrival's scheduled time.
func (t *txnTrace) startAt(name string, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(at.Sub(t.tr.epoch)), Parent: parent, Txn: t.txn})
	return len(t.spans) - 1
}

func (t *txnTrace) stop(i int) { t.stopAt(i, time.Now()) }

func (t *txnTrace) stopAt(i int, at time.Time) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(at.Sub(t.tr.epoch))
}

func (t *txnTrace) finish() {
	if t == nil {
		return
	}
	t.tr.mu.Lock()
	base := len(t.tr.spans)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.tr.spans = append(t.tr.spans, s)
	}
	t.tr.mu.Unlock()
}

// timed records fn as a root span outside any transaction.
func (tr *tracer) timed(name string, fn func()) {
	t := tr.txn(0)
	s := t.start(name, -1)
	fn()
	t.stop(s)
	t.finish()
}

// spanStats summarises the spans of one name.
type spanStats struct {
	count int
	durs  []time.Duration
	self  time.Duration // total self time: duration minus children's cover
}

// summarize groups spans by name and computes each span's self time:
// its duration minus the part of its interval its children cover.
func (tr *tracer) summarize() map[string]*spanStats {
	children := make(map[int][][2]int64)
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*spanStats)
	for i, s := range tr.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.count++
		st.durs = append(st.durs, time.Duration(s.End-s.Start))
		st.self += time.Duration(s.End-s.Start) - covered(s.Start, s.End, children[i])
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(lo, hi int64, ivs [][2]int64) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cur int64
	cur = lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return time.Duration(total)
}

// dump writes the spans as JSON lines after a header line naming the
// run, so a trace can be matched to the seed that produced it.
func (tr *tracer) dump(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	header["epoch"] = tr.epoch.Format(time.RFC3339Nano)
	header["spans"] = len(tr.spans)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

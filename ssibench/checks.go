package main

import (
	"slices"
	"time"
)

// write is one committed write, with the interval of the commit call
// that acknowledged it.
type write struct {
	key, val string
	cs, ce   time.Time
}

// possibleLast returns, per written key, the values that may be its
// last committed one. A write is certainly superseded only when another
// write to the key began its commit call after this one's returned;
// writes whose commit calls overlap may have committed in either order.
func possibleLast(ws []write) map[string][]string {
	latest := make(map[string]time.Time) // latest commit-call start per key
	for _, w := range ws {
		if w.cs.After(latest[w.key]) {
			latest[w.key] = w.cs
		}
	}
	out := make(map[string][]string, len(latest))
	for _, w := range ws {
		if !w.ce.Before(latest[w.key]) {
			out[w.key] = append(out[w.key], w.val)
		}
	}
	return out
}

// holds reports whether key's value v agrees with the writes: one of
// its possible last values if it was written, initial otherwise.
func holds(want map[string][]string, key, v, initial string) bool {
	if vals, ok := want[key]; ok {
		return slices.Contains(vals, v)
	}
	return v == initial
}

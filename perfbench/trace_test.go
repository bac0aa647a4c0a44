package main

import (
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "bench.root", Start: 0, End: 100, Parent: -1},
		{Name: "simnet.tick", Start: 10, End: 60, Parent: 0},
		{Name: "channel.Step", Start: 10, End: 30, Parent: 1},
		// Overlaps its sibling: the overlap is covered once.
		{Name: "simnet.Reports", Start: 20, End: 50, Parent: 1},
		// Sticks out of its parent: only the inside part is covered.
		{Name: "mac.Unmarshal", Start: 90, End: 120, Parent: 0},
		// Still open: ignored, and covers nothing.
		{Name: "netctl.Client.Join", Start: 70, End: -1, Parent: 0},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":   100 - 50 - 10, // root minus tick and the clipped codec span
		"simnet":  (50 - 40) + 30,
		"channel": 20,
		"mac":     30,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
	if got["netctl"] != 0 {
		t.Errorf("open span counted: self[netctl] = %d", got["netctl"])
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer(7)
	root := tr.begin("bench.root", -1)
	kid := tr.begin("simnet.Join", root)
	if d := tr.end(kid); d < 0 {
		t.Fatalf("negative span duration %v", d)
	}
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Run != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if got := spanDurations(tr.spans, "simnet.Join"); len(got) != 1 {
		t.Errorf("spanDurations found %d Join spans, want 1", len(got))
	}
	if err := tr.write(filepath.Join(t.TempDir(), "spans.json")); err != nil {
		t.Errorf("write: %v", err)
	}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *tracer
	id := tr.begin("simnet.Join", -1)
	if id != -1 || tr.end(id) != 0 {
		t.Errorf("nil tracer recorded a span")
	}
}

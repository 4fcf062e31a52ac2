package node

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"dbdedup/internal/chain"
	"dbdedup/internal/core"
	"dbdedup/internal/dedupcache"
	"dbdedup/internal/docstore"
)

// TestFlushGuardsReadNoChains pins the cost of a full flush over one
// version chain: every write-back re-encodes an older record against a
// newer one, and applied oldest first each guard decode reads a record the
// flush has not converted yet, so the flush walks no delta chain at all.
func TestFlushGuardsReadNoChains(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine core.Config
	}{
		{"backward", core.Config{Scheme: chain.Backward}},
		{"hop", core.Config{Scheme: chain.Hop, HopDistance: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := testNode(t, Options{Engine: tc.engine})
			versions := insertChain(t, n, "wiki", 64, 21)
			n.Barrier()

			pending := n.PendingWritebacks()
			if pending == 0 {
				t.Fatal("no write-backs pending: the chain did not deduplicate")
			}
			before := n.Stats()
			applied := n.FlushWritebacks(-1)
			after := n.Stats()

			if steps := after.DecodeSteps - before.DecodeSteps; steps != 0 {
				t.Errorf("flush took %d decode steps, want 0", steps)
			}
			if applied != pending {
				t.Errorf("FlushWritebacks = %d, want all %d pending", applied, pending)
			}
			if got := after.WritebacksApplied - before.WritebacksApplied; got != uint64(pending) {
				t.Errorf("WritebacksApplied moved by %d, want %d", got, pending)
			}
			if skipped := after.WritebacksSkipped - before.WritebacksSkipped; skipped != 0 {
				t.Errorf("WritebacksSkipped moved by %d, want 0", skipped)
			}
			for i, want := range versions {
				got, err := n.Read("wiki", fmt.Sprintf("v%d", i))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("v%d after flush: %v", i, err)
				}
			}
		})
	}
}

// TestPartialFlushAppliesBestSavings pins selection: FlushWritebacks(k)
// applies exactly the k pending write-backs with the highest savings (ties
// to the lower record ID); only the order within the batch is by ID.
func TestPartialFlushAppliesBestSavings(t *testing.T) {
	const k = 10
	opts := Options{Engine: core.Config{Scheme: chain.Backward}}
	// Two nodes fed the same inputs hold the same pending write-backs: one
	// is drained to read every entry's saving, the other is flushed.
	ref, n := testNode(t, opts), testNode(t, opts)
	insertChain(t, ref, "wiki", 40, 22)
	versions := insertChain(t, n, "wiki", 40, 22)

	all := ref.wb.DrainBest(ref.wb.Len())
	if len(all) != n.PendingWritebacks() || len(all) <= k {
		t.Fatalf("pending write-backs: reference %d, node %d; want equal and > %d",
			len(all), n.PendingWritebacks(), k)
	}
	slices.SortFunc(all, func(a, b dedupcache.Writeback) int {
		if c := cmp.Compare(b.Saving, a.Saving); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	best := make(map[uint64]bool, k)
	for _, wb := range all[:k] {
		best[wb.ID] = true
	}

	if applied := n.FlushWritebacks(k); applied != k {
		t.Fatalf("FlushWritebacks(%d) = %d", k, applied)
	}
	if left := n.PendingWritebacks(); left != len(all)-k {
		t.Errorf("%d write-backs left pending, want %d", left, len(all)-k)
	}
	for i := range versions {
		id, ok := n.lookup("wiki", fmt.Sprintf("v%d", i))
		if !ok {
			t.Fatalf("v%d: no record", i)
		}
		rec, ok, err := n.store.Get(id)
		if err != nil || !ok {
			t.Fatalf("v%d: store get: %v", i, err)
		}
		if converted := rec.Form == docstore.FormDelta; converted != best[id] {
			t.Errorf("v%d (id %d): converted %v, in the %d best savings %v", i, id, converted, k, best[id])
		}
	}
	for i, want := range versions {
		got, err := n.Read("wiki", fmt.Sprintf("v%d", i))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("v%d after partial flush: %v", i, err)
		}
	}
}

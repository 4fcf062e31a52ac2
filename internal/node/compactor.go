package node

import (
	"time"

	"dbdedup/internal/delta"
	"dbdedup/internal/docstore"
)

// CompactionOptions tunes the background space reclaimer. Backward encoding
// rewrites records constantly (every write-back supersedes a frame), so a
// dedup-heavy node accumulates dead bytes faster than a plain store; the
// compactor keeps disk usage proportional to live data.
type CompactionOptions struct {
	// Enabled starts the background compactor.
	Enabled bool
	// Interval is how often the dead-space ratio is checked (default 1s).
	Interval time.Duration
	// TriggerRatio is the dead/disk fraction that triggers compaction
	// (default 0.5).
	TriggerRatio float64
	// Rededup enables the compaction-time re-deduplication pass: live raw
	// records moved out of the victim segment are re-sketched against the
	// similarity index, and ones with a good match are rewritten as deltas.
	// This recovers dedup opportunities the insert path missed — most
	// importantly records whose match had been evicted from a bounded
	// feature index at insert time but is resident now.
	Rededup bool
	// RededupMaxChainDepth bounds the delta-chain depth a conversion may
	// create (default 8). Compaction-created references deepen chains that
	// the insert path, which only references raw records, never would.
	RededupMaxChainDepth int
	// RededupBudget caps the wall-clock time one pass may spend
	// re-sketching; once spent, the remaining records move unconverted.
	// Zero means no budget.
	RededupBudget time.Duration
}

const defaultRededupMaxChainDepth = 8

// startCompactor launches the background compaction loop.
func (n *Node) startCompactor(opts CompactionOptions) {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.TriggerRatio <= 0 {
		opts.TriggerRatio = 0.5
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(opts.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-n.stopCh:
				return
			case <-ticker.C:
				st := n.store.Stats()
				disk := n.store.DiskBytes()
				if disk == 0 {
					continue
				}
				if float64(st.DeadBytes)/float64(disk) < opts.TriggerRatio {
					continue
				}
				// Compaction failure is not fatal — space simply
				// stays unreclaimed until the next attempt.
				n.compactOnce()
			}
		}
	}()
}

// Compact triggers one synchronous compaction pass, returning the bytes
// reclaimed.
func (n *Node) Compact() (int64, error) { return n.compactOnce() }

// compactOnce runs one store compaction pass, with the re-dedup hook bundle
// attached when enabled, and folds the outcome into the node's counters.
func (n *Node) compactOnce() (int64, error) {
	start := time.Now()
	var h *docstore.CompactHooks
	if n.opts.Compaction.Rededup && n.eng != nil {
		h = n.rededupHooks()
	}
	reclaimed, err := n.store.CompactWith(h)
	if err != nil {
		return reclaimed, err
	}
	n.compm.ObservePass(time.Since(start))
	if reclaimed > 0 {
		n.compm.PhysicalBytesReclaimed.Add(reclaimed)
		n.compactedBytes.Add(reclaimed)
		n.mu.Lock()
		n.stats.Compactions++
		n.mu.Unlock()
	}
	return reclaimed, nil
}

// rededupHooks builds the CompactHooks bundle implementing compaction-time
// re-deduplication. Safety rests on three rules:
//
//   - Only unreferenced raw records convert ("bases stay raw"): nothing
//     decodes through the converted record, so the rewrite cannot deepen
//     any existing chain, and a cycle would need the new base's chain to
//     pass through the record — which requires the record to be referenced.
//   - The base reference is claimed (refcnt++) before the base's content is
//     decoded: once the claim is visible, client updates of the base stack
//     on top of section 0 and deletes hide rather than reclaim, so the
//     decoded content stays the content the delta will resolve against.
//   - Verify re-runs the grounding walk and an end-to-end decode under
//     applyMu — the lock every base-assigning path (write-back apply,
//     hidden-chain repair, this hook's commit) holds — so a conversion
//     commits only against the authoritative chain state.
//
// An abandoned conversion (superseded record, failed Verify, append error)
// surfaces as Skipped, which releases the claimed reference.
func (n *Node) rededupHooks() *docstore.CompactHooks {
	opts := n.opts.Compaction
	maxDepth := opts.RededupMaxChainDepth
	if maxDepth <= 0 {
		maxDepth = defaultRededupMaxChainDepth
	}
	var deadline time.Time
	if opts.RededupBudget > 0 {
		deadline = time.Now().Add(opts.RededupBudget)
	}
	return &docstore.CompactHooks{
		CommitLock: &n.applyMu,
		Rewrite: func(rec docstore.Record) (docstore.Record, bool) {
			if rec.Tombstone || rec.Hidden || rec.Stacked || rec.Form != docstore.FormRaw {
				return rec, false
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return rec, false
			}
			n.mu.RLock()
			referenced := n.refcnt[rec.ID] > 0
			n.mu.RUnlock()
			if referenced {
				return rec, false
			}
			n.compm.Resketched.Add(1)
			srcID, ok := n.eng.ProbeSimilar(rec.DB, rec.ID, rec.Payload)
			if !ok || srcID == rec.ID {
				return rec, false
			}
			return n.buildConversion(rec, srcID, maxDepth)
		},
		Verify: func(old, conv docstore.Record) bool {
			// A reference appearing since Rewrite means another record
			// now decodes through this one — converting it would deepen
			// that chain, so bail.
			n.mu.RLock()
			referenced := n.refcnt[old.ID] > 0
			n.mu.RUnlock()
			if referenced {
				return false
			}
			if !n.rededupStillSafe(conv.ID, conv.BaseID, maxDepth) {
				return false
			}
			// End-to-end guard (same as write-back apply): the committed
			// delta must reproduce exactly the payload being replaced.
			baseContent, err := n.decodeBase(conv.BaseID, false)
			if err != nil {
				return false
			}
			d, err := delta.Unmarshal(conv.Payload)
			if err != nil {
				return false
			}
			return delta.Matches(baseContent, d, old.Payload)
		},
		Committed: func(old, conv docstore.Record) {
			n.compm.Conversions.Add(1)
			n.compm.LogicalBytesSaved.Add(int64(len(old.Payload) - len(conv.Payload)))
		},
		Skipped: func(conv docstore.Record) {
			n.compm.ConversionsSkipped.Add(1)
			n.releaseRef(conv.BaseID)
		},
	}
}

// buildConversion claims a reference on srcID, decodes its base content, and
// delta-encodes rec against it. On any failure — or an unprofitable delta —
// the claim is released and rec is returned unchanged.
func (n *Node) buildConversion(rec docstore.Record, srcID uint64, maxDepth int) (docstore.Record, bool) {
	// Claim first: once refcnt[srcID] > 0 is visible, a concurrent client
	// update of the base stacks (section 0 preserved) and a delete hides
	// instead of reclaiming, so the content decoded below stays the
	// content the committed delta will resolve against.
	n.mu.Lock()
	n.refcnt[srcID]++
	n.mu.Unlock()

	abort := func() (docstore.Record, bool) {
		n.releaseRef(srcID)
		return rec, false
	}
	// Advisory pre-check; Verify repeats it authoritatively under applyMu.
	if !n.rededupStillSafe(rec.ID, srcID, maxDepth) {
		return abort()
	}
	base, err := n.decodeBase(srcID, true)
	if err != nil {
		// A similarity-index candidate can name a dead record; the stray
		// refcnt entry the claim created is cleaned up by the release.
		return abort()
	}
	d := n.eng.CompressDelta(base, rec.Payload)
	if d.EncodedSize() >= len(rec.Payload) {
		return abort()
	}
	conv := rec
	conv.Form = docstore.FormDelta
	conv.BaseID = srcID
	conv.Payload = d.Marshal()
	return conv, true
}

// rededupStillSafe walks id's prospective chain starting at baseID and
// reports whether it grounds in a raw record within maxDepth hops without
// passing through id itself (which would be a cycle).
func (n *Node) rededupStillSafe(id, baseID uint64, maxDepth int) bool {
	cur := baseID
	for depth := 1; ; depth++ {
		if cur == id || depth > maxDepth {
			return false
		}
		m, ok := n.store.Meta(cur)
		if !ok {
			return false
		}
		if m.Form != docstore.FormDelta {
			return true
		}
		cur = m.BaseID
	}
}

package node

import (
	"fmt"

	"dbdedup/internal/docstore"
)

// VerifyReport summarises a full-store integrity scan.
type VerifyReport struct {
	// Records is the number of stored records examined (including hidden
	// decode bases).
	Records int
	// Visible is how many are client-visible.
	Visible int
	// DeltaEncoded is how many are stored as backward deltas.
	DeltaEncoded int
	// MaxChainDepth is the longest decode chain encountered.
	MaxChainDepth int
	// CacheHitsDelta/CacheMissesDelta are the block-cache outcomes the
	// scrub itself generated — how much of the scan the cache absorbed.
	CacheHitsDelta   uint64
	CacheMissesDelta uint64
	// Errors lists the records that failed to decode (empty = healthy).
	Errors []string
}

// Ok reports whether the scan found no problems.
func (r VerifyReport) Ok() bool { return len(r.Errors) == 0 }

// String renders a one-line summary.
func (r VerifyReport) String() string {
	status := "OK"
	if !r.Ok() {
		status = fmt.Sprintf("%d ERRORS", len(r.Errors))
	}
	return fmt.Sprintf("verify: %s — %d records (%d visible, %d delta-encoded), max chain depth %d",
		status, r.Records, r.Visible, r.DeltaEncoded, r.MaxChainDepth)
}

// VerifyAll decodes every stored record — visible and hidden — checking that
// all delta chains resolve, and reports what it found. It is an online
// scrub: reads proceed concurrently, and a failure identifies the record so
// operators can fall back to a replica.
func (n *Node) VerifyAll() (report VerifyReport) {
	st0 := n.store.Stats()
	defer func() {
		st1 := n.store.Stats()
		report.CacheHitsDelta = st1.CacheHits - st0.CacheHits
		report.CacheMissesDelta = st1.CacheMisses - st0.CacheMisses
	}()

	type item struct {
		id      uint64
		db, key string
		form    docstore.Form
		hidden  bool
	}
	var items []item
	n.store.Range(func(rec docstore.Record) bool {
		items = append(items, item{id: rec.ID, db: rec.DB, key: rec.Key,
			form: rec.Form, hidden: rec.Hidden})
		return true
	})

	for _, it := range items {
		if _, ok := n.store.Meta(it.id); !ok {
			// Reclaimed since the listing — decoding other records can
			// splice hidden records out of chains and free them, which
			// is progress, not corruption.
			continue
		}
		report.Records++
		if !it.hidden {
			report.Visible++
		}
		if it.form == docstore.FormDelta {
			report.DeltaEncoded++
		}
		if depth := n.chainDepth(it.id); depth > report.MaxChainDepth {
			report.MaxChainDepth = depth
		}
		if _, err := n.decodeBase(it.id, true); err != nil {
			if _, ok := n.store.Meta(it.id); !ok {
				continue // reclaimed while decoding
			}
			report.Errors = append(report.Errors,
				fmt.Sprintf("%s/%s (id %d): %v", it.db, it.key, it.id, err))
			continue
		}
		if !it.hidden {
			if _, err := n.decodeVisible(it.id); err != nil {
				report.Errors = append(report.Errors,
					fmt.Sprintf("%s/%s (id %d): visible decode: %v", it.db, it.key, it.id, err))
			}
		}
	}
	return report
}

// chainDepth returns how many base hops record id is from a raw record.
func (n *Node) chainDepth(id uint64) int {
	depth := 0
	for {
		m, ok := n.store.Meta(id)
		if !ok || m.Form == docstore.FormRaw {
			return depth
		}
		depth++
		id = m.BaseID
		if depth > 1<<20 {
			return depth
		}
	}
}

package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/core"
	"dbdedup/internal/metrics"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
)

// transferDialTimeout bounds a handoff dial to a destination member.
const transferDialTimeout = 10 * time.Second

// Shard wraps a node with ring routing: it serves operations for databases
// the active ring places on this member and classifies the rest with the
// explicit routing taxonomy (wrong-shard redirect, or retry-later while a
// rebalance window holds the database). It implements apiserver.Backend and
// apiserver.ClusterBackend, so dbdedupd serves it exactly like a bare node.
//
// Concurrency: opMu is the routing lock. Every client operation holds it
// shared from the routing decision through the node mutation, and every ring
// transition (install, commit, abort) holds it exclusively — so a window can
// never open or cut over *between* an op's route check and its write. That
// gap is precisely where an acked write could land on a database whose
// snapshot already streamed out, i.e. a lost acked write; the lock closes it.
type Shard struct {
	n    *node.Node
	self string
	nw   netsim.Network
	cm   *metrics.ClusterMetrics

	opMu    sync.RWMutex
	ring    *Ring // active placement this member serves under
	pending *Ring // non-nil while a rebalance window is open
}

// NewShard wraps n as the cluster member named self (its client address),
// serving under the initial ring. nw is the transport used to push handoffs
// to other members; cm may be nil.
func NewShard(n *node.Node, self string, initial *Ring, nw netsim.Network, cm *metrics.ClusterMetrics) *Shard {
	if initial == nil {
		initial = NewRing(0, nil)
	}
	if nw == nil {
		nw = netsim.Default
	}
	s := &Shard{n: n, self: self, nw: nw, cm: cm, ring: initial}
	if cm != nil {
		cm.RingEpoch.Set(int64(initial.Epoch))
	}
	return s
}

// Node returns the wrapped node (admin surfaces read stats through it).
func (s *Shard) Node() *node.Node { return s.n }

// Self returns this member's ring name.
func (s *Shard) Self() string {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	return s.self
}

// SetSelf renames the member. Harnesses binding to an OS-assigned port only
// learn their address after the server starts; call this before the member
// serves any cluster traffic or joins a ring.
func (s *Shard) SetSelf(addr string) {
	s.opMu.Lock()
	s.self = addr
	s.opMu.Unlock()
}

// Ring returns the active ring.
func (s *Shard) Ring() *Ring {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	return s.ring
}

// Pending returns the pending ring, or nil when no window is open.
func (s *Shard) Pending() *Ring {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	return s.pending
}

// classify routes db under the current rings. Nil means serve locally.
// Caller holds opMu (shared or exclusive). Placement is plain ring logic: an
// empty ring, or one that does not name this member, owns nothing here.
func (s *Shard) classify(db string, write bool) error {
	r, p := s.ring, s.pending
	owner := r.Owner(db)
	if p != nil {
		powner := p.Owner(db)
		if powner == s.self && owner != s.self {
			// Gained under the pending ring but not yet cut over: the
			// source is still authoritative, so serving here — even a
			// read — could expose or accept state the abort path would
			// then throw away. Hold the client off until commit.
			if s.cm != nil {
				s.cm.MovingAnswered.Add(1)
			}
			return &apiserver.ShardMovingError{Epoch: p.Epoch}
		}
		if owner == s.self && powner != s.self {
			// Moving away: a write would miss the snapshot already
			// streaming to the new owner — a lost acked write at cutover —
			// so writes freeze until the window resolves. Reads keep being
			// served from the local frozen copy, a deliberate
			// availability-over-freshness tradeoff: during the commit
			// fan-out the destination may commit (and ack new writes)
			// moments before this member hears its own commit, so a client
			// on the old ring can read a value here that is already
			// overwritten at the new owner. Such reads are never torn and
			// never resurrect deleted keys — they are just at most one
			// cutover window behind.
			if write {
				if s.cm != nil {
					s.cm.MovingAnswered.Add(1)
				}
				return &apiserver.ShardMovingError{Epoch: p.Epoch}
			}
			return nil
		}
	}
	if owner != s.self {
		if s.cm != nil {
			s.cm.RedirectsIssued.Add(1)
		}
		return &apiserver.WrongShardError{Owner: owner, Epoch: r.Epoch}
	}
	return nil
}

// ---- apiserver.Backend ----

// Insert routes and stores a new record.
func (s *Shard) Insert(db, key string, payload []byte) error {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if err := s.classify(db, true); err != nil {
		return err
	}
	return s.n.Insert(db, key, payload)
}

// Update routes and overwrites a record.
func (s *Shard) Update(db, key string, payload []byte) error {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if err := s.classify(db, true); err != nil {
		return err
	}
	return s.n.Update(db, key, payload)
}

// Delete routes and removes a record.
func (s *Shard) Delete(db, key string) error {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if err := s.classify(db, true); err != nil {
		return err
	}
	return s.n.Delete(db, key)
}

// Read routes and fetches a record.
func (s *Shard) Read(db, key string) ([]byte, error) {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if err := s.classify(db, false); err != nil {
		return nil, err
	}
	return s.n.Read(db, key)
}

// Stats reports the wrapped node's stats.
func (s *Shard) Stats() node.Stats { return s.n.Stats() }

// DBStats reports the wrapped node's per-database dedup state.
func (s *Shard) DBStats() []core.DBStats { return s.n.DBStats() }

// VerifyAll runs the wrapped node's integrity scan.
func (s *Shard) VerifyAll() node.VerifyReport { return s.n.VerifyAll() }

// ---- apiserver.ClusterBackend ----

// RingStatus is the wire form of a member's ring state: the active ring it
// serves under and, while a rebalance window is open, the pending ring. The
// coordinator reads Pending to recover windows a crashed predecessor left
// behind.
type RingStatus struct {
	Self    string `json:"self"`
	Ring    *Ring  `json:"ring"`
	Pending *Ring  `json:"pending,omitempty"`
}

// RingJSON returns the member's ring status wire form.
func (s *Shard) RingJSON() []byte {
	s.opMu.RLock()
	st := RingStatus{Self: s.self, Ring: s.ring, Pending: s.pending}
	s.opMu.RUnlock()
	buf, _ := json.Marshal(st)
	return buf
}

// InstallRing opens a rebalance window under the proposed ring. Epochs are
// strictly monotonic: a ring at or below the active epoch — or at or below
// an open window's epoch — is refused unless it is byte-identical to the
// active or pending ring (idempotent re-install, so a coordinator retry
// after a partial failure converges instead of erroring). A higher-epoch
// install while a window is already open aborts the stale window first —
// the coordinator that opened it is gone.
func (s *Shard) InstallRing(body []byte) error {
	r, err := UnmarshalRing(body)
	if err != nil {
		return err
	}
	s.opMu.Lock()
	if r.Equal(s.ring) || (s.pending != nil && r.Equal(s.pending)) {
		s.opMu.Unlock()
		return nil
	}
	if r.Epoch <= s.ring.Epoch {
		cur := s.ring.Epoch
		s.opMu.Unlock()
		return fmt.Errorf("cluster: stale ring epoch %d (active %d)", r.Epoch, cur)
	}
	if s.pending != nil && r.Epoch <= s.pending.Epoch {
		// A lagging coordinator must not replace a newer open window with
		// its stale proposal — that would abandon the newer window's
		// half-transferred copies in favour of an older placement.
		cur := s.pending.Epoch
		s.opMu.Unlock()
		return fmt.Errorf("cluster: stale ring epoch %d (pending window %d)", r.Epoch, cur)
	}
	var drop []string
	if s.pending != nil {
		drop = s.abandonPendingLocked()
	}
	s.pending = r
	if s.cm != nil {
		s.cm.RingInstalls.Add(1)
	}
	s.opMu.Unlock()
	s.dropDBs(drop)
	return nil
}

// abandonPendingLocked clears an open window without committing it and
// returns the databases whose half-transferred local copies must be dropped:
// those the pending ring places here and the active ring does not. Such a
// copy was never served (classify holds it off), so dropping it loses
// nothing. Caller holds opMu exclusively.
func (s *Shard) abandonPendingLocked() []string {
	p := s.pending
	s.pending = nil
	var drop []string
	for _, db := range s.n.DBNames() {
		if p.Owner(db) == s.self && s.ring.Owner(db) != s.self {
			drop = append(drop, db)
		}
	}
	return drop
}

// handoffSummary is BeginHandoff's wire answer.
type handoffSummary struct {
	Moved   map[string]int `json:"moved"` // db -> records transferred
	Records int            `json:"records"`
	Bytes   int64          `json:"bytes"`
}

// BeginHandoff streams every database this member loses under the pending
// ring to its new owner and blocks until done. Writes to those databases
// are already frozen (classify answers ShardMovingError once the window is
// open), and Barrier drains the encode queues, so the stream is a complete,
// stable snapshot of everything ever acked for those databases. Safe to
// re-run: the destination upserts.
func (s *Shard) BeginHandoff() ([]byte, error) {
	s.opMu.RLock()
	r, p := s.ring, s.pending
	s.opMu.RUnlock()
	if p == nil {
		return nil, errors.New("cluster: no rebalance window open")
	}
	if s.cm != nil {
		s.cm.HandoffsStarted.Add(1)
	}
	s.n.Barrier()

	sum := handoffSummary{Moved: map[string]int{}}
	conns := make(map[string]*apiserver.Client)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for _, db := range s.n.DBNames() {
		dest := p.Owner(db)
		if r.Owner(db) != s.self || dest == s.self || dest == "" {
			continue
		}
		c := conns[dest]
		if c == nil {
			var err error
			c, err = apiserver.DialNetwork(s.nw, dest)
			if err != nil {
				if s.cm != nil {
					s.cm.TransferFailures.Add(1)
				}
				return nil, fmt.Errorf("cluster: handoff dial %s: %w", dest, err)
			}
			c.SetTimeout(transferDialTimeout)
			conns[dest] = c
		}
		for _, key := range s.n.DBKeys(db) {
			content, err := s.n.Read(db, key)
			if errors.Is(err, node.ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("cluster: handoff read %s/%s: %w", db, key, err)
			}
			if err := c.Transfer(db, key, content); err != nil {
				if s.cm != nil {
					s.cm.TransferFailures.Add(1)
				}
				return nil, fmt.Errorf("cluster: handoff transfer %s/%s to %s: %w", db, key, dest, err)
			}
			sum.Moved[db]++
			sum.Records++
			sum.Bytes += int64(len(content))
			if s.cm != nil {
				s.cm.TransferRecordsOut.Add(1)
				s.cm.TransferBytesOut.Add(int64(len(content)))
			}
		}
	}
	return json.Marshal(sum)
}

// CommitRing cuts the open window over: the pending ring becomes active,
// this member starts serving what it gained, and local copies of databases
// it no longer owns are dropped (through the normal delete path, so its
// replica chain drops them too). Idempotent when no window is open.
func (s *Shard) CommitRing() error {
	s.opMu.Lock()
	if s.pending == nil {
		s.opMu.Unlock()
		return nil
	}
	s.ring = s.pending
	s.pending = nil
	if s.cm != nil {
		s.cm.HandoffsCommitted.Add(1)
		s.cm.RingEpoch.Set(int64(s.ring.Epoch))
	}
	var drop []string
	for _, db := range s.n.DBNames() {
		if s.ring.Owner(db) != s.self {
			drop = append(drop, db)
		}
	}
	s.opMu.Unlock()
	s.dropDBs(drop)
	return nil
}

// AbortRing reverts the open window: half-transferred local copies of gained
// databases are dropped and the previous membership is reinstalled under a
// fresh (higher) epoch, preserving per-member epoch monotonicity. Sources
// never deleted anything before commit, so abort loses nothing. Idempotent
// when no window is open.
func (s *Shard) AbortRing() error {
	s.opMu.Lock()
	if s.pending == nil {
		s.opMu.Unlock()
		return nil
	}
	epoch := s.pending.Epoch
	if s.ring.Epoch > epoch {
		epoch = s.ring.Epoch
	}
	drop := s.abandonPendingLocked()
	s.ring = NewRing(epoch+1, s.ring.Members)
	if s.cm != nil {
		s.cm.HandoffsAborted.Add(1)
		s.cm.RingEpoch.Set(int64(s.ring.Epoch))
	}
	s.opMu.Unlock()
	s.dropDBs(drop)
	return nil
}

// Transfer applies one incoming handoff record. Only legal while a window
// naming this member as the database's new owner is open; the shared lock
// keeps a commit/abort from landing mid-record.
func (s *Shard) Transfer(db, key string, payload []byte) error {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if s.pending == nil || s.pending.Owner(db) != s.self {
		return fmt.Errorf("cluster: no open handoff window for db %q", db)
	}
	if err := s.n.TransferUpsert(db, key, payload); err != nil {
		if s.cm != nil {
			s.cm.TransferFailures.Add(1)
		}
		return err
	}
	if s.cm != nil {
		s.cm.TransferRecordsIn.Add(1)
		s.cm.TransferBytesIn.Add(int64(len(payload)))
	}
	return nil
}

// dropDBs deletes the named databases, counting what went.
func (s *Shard) dropDBs(dbs []string) {
	for _, db := range dbs {
		n, _ := s.n.DropDB(db)
		if s.cm != nil {
			s.cm.DroppedDBs.Add(1)
			s.cm.DroppedRecords.Add(int64(n))
		}
	}
}

// Metrics returns the shard's cluster metrics (may be nil).
func (s *Shard) Metrics() *metrics.ClusterMetrics { return s.cm }

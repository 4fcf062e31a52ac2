package node

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dbdedup/internal/metrics"
	"dbdedup/internal/oplog"
)

// Applier is the secondary-side counterpart of the node's encoder: it runs
// replicated oplog entries through the same database-sharded pool
// (shardPool), so mutations to one database apply in sequence order (one
// database → one shard → one worker → strict FIFO) while independent
// databases apply concurrently, and a secondary can keep up with a parallel
// primary (cf. the pipeline-parallel apply designs of FOLD and Li et al.).
//
// The replication layer is the single dispatcher: it feeds entries in
// sequence order via EnqueueEntry/EnqueueSnapshotRecord and uses Barrier
// around snapshot frames (which touch arbitrary databases and must not
// interleave with in-flight entries). The applied sequence number becomes a
// low-water mark: LowWater reports the largest seq S such that every
// dispatched entry with seq ≤ S has been applied, however the per-shard
// completions interleave.
//
// Enqueue methods and Reset must be called from the dispatcher goroutine.
// Barrier is additionally safe to call concurrently with Close and from
// other goroutines (it then orders arbitrarily against concurrent
// enqueues); all remaining methods are safe for concurrent use.
type Applier struct {
	n     *Node
	fetch func(db, key string) ([]byte, error)
	m     *metrics.ApplyMetrics

	pool *shardPool[applyJob]

	mu      sync.Mutex
	errv    error
	base    uint64       // all dispatched seqs <= base are applied
	pending []*applySlot // dispatched tracked seqs > base, dispatch order

	// vanished records keys ("db\x00key") whose strict insert was skipped
	// because the primary no longer held the record (ErrFetchUnavailable):
	// it was deleted there after the insert was logged, so the stream will
	// carry that delete later. Ops on a vanished key that fail with
	// ErrNotFound are expected, not pool poison; the delete clears the
	// mark. Guarded by mu.
	vanished map[string]struct{}
}

// ApplierOptions configures an apply pool.
type ApplierOptions struct {
	// Workers is the number of apply workers, each owning one FIFO shard;
	// entries are hashed to shards by database name. Defaults to
	// GOMAXPROCS.
	Workers int
	// Queue bounds each shard's queue (default 1024). The dispatcher
	// blocks when a shard is full — backpressure onto the replication
	// stream instead of unbounded memory growth.
	Queue int
	// Fetch resolves a forward-encoded insert whose delta base is locally
	// missing by retrieving the record's full content (normally from the
	// primary over the replication fetch connection). It is called from
	// multiple workers concurrently and must be safe for that. nil
	// disables the fallback: base misses become terminal apply errors.
	Fetch func(db, key string) ([]byte, error)
}

type applyJob struct {
	entry    oplog.Entry
	lenient  bool
	snapshot bool       // ApplySnapshotRecord(DB, Key, Payload); untracked
	slot     *applySlot // low-water tracking (nil for snapshot records)
}

// applySlot tracks one dispatched entry in the low-water window.
type applySlot struct {
	seq  uint64
	done bool
}

// NewApplier starts an apply pool over n. afterSeq seeds the low-water mark
// (the last sequence number already applied before this pool took over).
func NewApplier(n *Node, afterSeq uint64, opts ApplierOptions) *Applier {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Queue <= 0 {
		opts.Queue = 1024
	}
	a := &Applier{
		n:     n,
		fetch: opts.Fetch,
		m:     n.ApplyMetrics(),
		base:  afterSeq,
	}
	a.m.Workers.Set(int64(opts.Workers))
	a.pool = newShardPool(opts.Workers, opts.Queue, a.run, &a.m.QueueDepth, &a.m.QueueOverflows)
	return a
}

// EnqueueEntry dispatches one replicated oplog entry to its database's
// shard, blocking while the shard is at capacity. Entries must be enqueued
// in sequence order.
func (a *Applier) EnqueueEntry(e oplog.Entry, lenient bool) {
	slot := &applySlot{seq: e.Seq}
	a.mu.Lock()
	a.pending = append(a.pending, slot)
	a.mu.Unlock()
	a.dispatch(e.DB, applyJob{entry: e, lenient: lenient, slot: slot})
}

// EnqueueSnapshotRecord dispatches one snapshot record (insert-or-replace,
// no sequence number) to its database's shard.
func (a *Applier) EnqueueSnapshotRecord(db, key string, payload []byte) {
	e := oplog.Entry{DB: db, Key: key, Payload: payload}
	a.dispatch(db, applyJob{entry: e, snapshot: true})
}

func (a *Applier) dispatch(db string, job applyJob) {
	if a.pool.closed.Load() {
		// Pool stopped: the job is dropped, not applied, so its slot must
		// stay pending — the low-water mark must not advance over it.
		return
	}
	a.pool.push(a.pool.reserve(db), job)
}

// Barrier blocks until every job enqueued before the call has been applied.
// The replication layer brackets snapshot frames with it: a snapshot
// replaces state across arbitrary databases and must not interleave with
// in-flight entries on any shard.
//
// Barrier is safe to call concurrently with Close (e.g. from WaitForSeq
// while the secondary shuts down): once the pool is closed and drained it
// returns at once rather than waiting on exited workers.
func (a *Applier) Barrier() { a.pool.barrier() }

// Reset rebases the low-water mark after a snapshot: the snapshot defines
// the stream position outright (an epoch-mismatch resync can rebase it
// downward), and with it any pending vanished-key expectations. Callers
// must Barrier first so no tracked entries are in flight.
func (a *Applier) Reset(seq uint64) {
	a.mu.Lock()
	a.base = seq
	a.pending = a.pending[:0]
	a.vanished = nil
	a.mu.Unlock()
}

func (a *Applier) markVanished(db, key string) {
	a.mu.Lock()
	if a.vanished == nil {
		a.vanished = make(map[string]struct{})
	}
	a.vanished[db+"\x00"+key] = struct{}{}
	a.mu.Unlock()
}

// vanishedHit reports whether (db, key) is marked vanished, clearing the
// mark when clear is set (the expected delete arrived).
func (a *Applier) vanishedHit(db, key string, clear bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.vanished[db+"\x00"+key]
	if ok && clear {
		delete(a.vanished, db+"\x00"+key)
	}
	return ok
}

// LowWater returns the applied-sequence low-water mark: every dispatched
// entry with seq at or below it has been applied.
func (a *Applier) LowWater() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.base
}

// BaseFetches reports how many forward-encoded inserts fell back to a
// full-record fetch.
func (a *Applier) BaseFetches() uint64 {
	return uint64(a.m.BaseFetches.Total())
}

// Err returns the first terminal apply error. Once set, remaining queued
// jobs are drained without being applied (order past a failed entry is
// meaningless) and the replication stream is expected to stop.
func (a *Applier) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.errv
}

func (a *Applier) fail(err error) {
	a.mu.Lock()
	if a.errv == nil {
		a.errv = err
	}
	a.mu.Unlock()
}

// Close drains the shard queues and stops the workers. The dispatcher must
// have stopped enqueueing first.
func (a *Applier) Close() { a.pool.close() }

// run applies one job and, on success, advances the low-water window. A
// failed entry — and every entry drained after the pool is poisoned —
// leaves its slot pending, so the low-water mark freezes at the first
// unapplied sequence: AppliedSeq never reports entries that were not
// actually applied, and persisting Epoch+AppliedSeq for ConnectResume
// cannot skip them.
func (a *Applier) run(job applyJob) {
	if a.Err() != nil {
		return // poisoned: drain without applying
	}
	start := time.Now()
	var err error
	switch {
	case job.snapshot:
		err = a.n.ApplySnapshotRecord(job.entry.DB, job.entry.Key, job.entry.Payload)
	case job.lenient:
		err = a.n.ApplyReplicatedLenient(job.entry)
	default:
		err = a.n.ApplyReplicated(job.entry)
	}
	if errors.Is(err, ErrBaseMissing) {
		switch {
		case a.fetch == nil:
			if job.lenient {
				// Resync window without a fetch path: the record is
				// re-delivered by a future snapshot if still live.
				err = nil
			}
		default:
			// Fall back to fetching the full record from the primary
			// (paper §4.1 fn. 4). applyReplicatedInsert rolled the insert
			// counter back, so installing the fetched content counts the
			// insert exactly once.
			content, ferr := a.fetch(job.entry.DB, job.entry.Key)
			switch {
			case ferr == nil:
				err = a.n.ApplySnapshotRecord(job.entry.DB, job.entry.Key, content)
				if err == nil {
					a.m.BaseFetches.Add(1)
				}
			case errors.Is(ferr, ErrFetchUnavailable):
				// The primary no longer holds the record: it was deleted
				// (or replaced) after this insert was logged, and the
				// stream will carry that op later. Skip the insert; on
				// the strict path remember the key so the upcoming
				// delete's ErrNotFound is expected rather than terminal.
				if !job.lenient {
					a.markVanished(job.entry.DB, job.entry.Key)
				}
				err = nil
			case job.lenient:
				// Transport trouble during a resync window: tolerate it —
				// the record is re-delivered by a future snapshot if
				// still live.
				err = nil
			default:
				err = fmt.Errorf("%w (fetch fallback: %v)", err, ferr)
			}
		}
	}
	if errors.Is(err, ErrNotFound) && !job.lenient && !job.snapshot {
		// A strict op on a key whose insert was skipped as vanished is the
		// follow-up the skip predicted. The delete consumes the mark; an
		// update leaves it (the record is still not installed).
		switch job.entry.Op {
		case oplog.OpUpdate:
			if a.vanishedHit(job.entry.DB, job.entry.Key, false) {
				err = nil
			}
		case oplog.OpDelete:
			if a.vanishedHit(job.entry.DB, job.entry.Key, true) {
				err = nil
			}
		}
	}
	a.m.Latency().Observe(time.Since(start))
	if err != nil {
		a.m.ApplyFailures.Add(1)
		if job.snapshot {
			a.fail(fmt.Errorf("snapshot record %s/%s: %w", job.entry.DB, job.entry.Key, err))
		} else {
			a.fail(fmt.Errorf("applying seq %d: %w", job.entry.Seq, err))
		}
		return
	}
	a.m.Applied.Add(1)
	a.complete(job)
}

// complete marks an applied job's slot done and advances the low-water mark
// over the applied prefix of the dispatch window. It is only called for
// jobs that applied successfully; an unapplied slot stays pending and pins
// the mark.
func (a *Applier) complete(job applyJob) {
	if job.slot == nil {
		return
	}
	a.mu.Lock()
	job.slot.done = true
	for len(a.pending) > 0 && a.pending[0].done {
		a.base = a.pending[0].seq
		a.pending = a.pending[1:]
	}
	a.mu.Unlock()
}

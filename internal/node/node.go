// Package node implements a dbDedup DBMS node: the document store, oplog,
// dedup engine, and caches wired together per paper §4.1 (Fig. 8).
//
// Inserts are stored raw and acknowledged immediately; the dedup encoder
// runs behind a pool of background workers, off the critical path, and
// produces (a) the forward-encoded oplog entry that replication ships and
// (b) backward write-backs that the lossy write-back cache applies when the
// node is idle. Encode jobs are sharded by database name onto per-shard FIFO
// queues (shardPool), each drained by one worker: mutations to the same
// database are processed in the order they took effect (the invariant oplog
// correctness rests on) while independent databases encode in parallel.
// Each shard's queue is bounded; a client mutation that finds its shard full
// blocks until the encoder catches up (backpressure) rather than queueing
// unboundedly. With SyncEncode a mutation additionally waits for its own job.
// Reads decode through backward-delta chains, consulting the source record
// cache. Reference counts protect every record that serves as a decode base:
// updates to referenced records append ("stack") instead of overwriting, and
// deletes hide instead of removing, with opportunistic chain repair on reads.
package node

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbdedup/internal/admission"
	"dbdedup/internal/core"
	"dbdedup/internal/dedupcache"
	"dbdedup/internal/delta"
	"dbdedup/internal/docstore"
	"dbdedup/internal/faultfs"
	"dbdedup/internal/metrics"
	"dbdedup/internal/oplog"
)

// ErrNotFound is returned for reads/updates/deletes of absent records.
var ErrNotFound = errors.New("node: record not found")

// ErrOverloaded is returned for inserts refused by admission control: the
// server is in overload and the caller's tenant is past its fair share. The
// insert did not happen; the client may retry with backoff or against
// another shard.
var ErrOverloaded = errors.New("node: overloaded, insert rejected by admission control")

// ErrDuplicateKey is returned for inserts whose (db, key) already exists.
var ErrDuplicateKey = errors.New("duplicate key")

var errClosed = errors.New("node: closed")

// noWait is the already-closed channel an asynchronous mutation "waits" on.
var noWait = func() <-chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Options configures a node.
type Options struct {
	// Dir is the storage directory ("" = in-memory).
	Dir string
	// Engine configures the dedup engine.
	Engine core.Config
	// DisableDedup turns the dedup engine off entirely (the "Original"
	// baseline configuration in Fig. 12).
	DisableDedup bool
	// BlockCompression enables block-level compression in the store (the
	// "Snappy" configuration).
	BlockCompression bool
	// BlockSize, SegmentSize, CacheBlocks, CacheShards pass through to
	// the store.
	BlockSize, SegmentSize, CacheBlocks, CacheShards int
	// SyncWrites passes through to the store: fsync each sealed block, so
	// an acknowledged Flush survives a crash.
	SyncWrites bool
	// FS is the filesystem the store runs on (nil = direct os-backed).
	// Crash tests install a faultfs.Injector here.
	FS faultfs.FS
	// OplogCapacity bounds the retained oplog entries.
	OplogCapacity int
	// WritebackCacheBytes bounds the lossy write-back cache (default
	// 8 MiB; negative disables the cache, applying write-backs inline —
	// the Fig. 13b "without write-back cache" configuration).
	WritebackCacheBytes int64
	// SyncEncode makes each client mutation return only after the encoder
	// pool has processed its job (its oplog entry exists and its write-backs
	// are queued). The job still runs on its database's encoder shard, so
	// EncodeWorkers bounds encode concurrency in both modes. Deterministic
	// for a single-threaded caller; used by tests and the compression-ratio
	// experiments.
	SyncEncode bool
	// EncodeQueue bounds each encoder shard's queue (default 1024). A
	// client mutation that finds its database's shard full blocks until
	// the encoder drains a slot — caller backpressure instead of unbounded
	// memory growth; such stalls are counted in Stats.EncodeOverflows.
	EncodeQueue int
	// EncodeWorkers is the number of background encoder workers, each
	// owning one queue shard; jobs are hashed by database name so
	// per-database encode order always matches mutation order. Defaults
	// to GOMAXPROCS.
	EncodeWorkers int
	// DisableAutoFlush stops the background idle flusher; callers drive
	// FlushWritebacks manually (experiments do).
	DisableAutoFlush bool
	// FlushInterval is the idle-detection period (default 10ms).
	FlushInterval time.Duration
	// IdleFlushBatch is how many write-backs one idle tick applies
	// (default 64).
	IdleFlushBatch int
	// SimulatedAppendDelay injects per-append device latency into the
	// store (experiments emulating slow disks).
	SimulatedAppendDelay time.Duration
	// SimulatedEncodeDelay injects per-insert latency into the dedup
	// encode stage (the storm harness uses it to pin insert cost
	// independent of host speed). Asynchronously, the shard worker sleeps
	// it, pinning the encoder pool's capacity. With SyncEncode the
	// inserting caller sleeps it while its job is queued, pinning per-call
	// latency without serialising one database's inserts behind each
	// other's sleeps. Shed-raw inserts skip it, like they skip the real
	// encode work it stands in for.
	SimulatedEncodeDelay time.Duration
	// Admission configures overload protection in front of the encoder
	// pool: admission control, per-tenant fair share, and shed-to-raw
	// degradation. Zero value = no controller (admit everything).
	Admission admission.Options
	// Compaction configures background dead-space reclamation.
	Compaction CompactionOptions
}

// Stats is a node-level snapshot.
type Stats struct {
	Store  docstore.Stats
	Engine core.Stats
	// RawInsertBytes is the total client payload bytes inserted.
	RawInsertBytes int64
	// OplogBytes is the marshalled size of all oplog entries produced —
	// what replication would ship.
	OplogBytes int64
	// Inserts/Reads/Updates/Deletes count client operations.
	Inserts, Reads, Updates, Deletes uint64
	// WritebacksApplied / WritebacksSkipped count flush outcomes.
	WritebacksApplied, WritebacksSkipped uint64
	// DecodeSteps counts delta-chain steps (store fetches of a base)
	// taken by every decode, not only by client reads: write-back and
	// re-dedup guards, engine source fetches, replica apply and Verify
	// count too.
	DecodeSteps uint64
	// HiddenRepaired counts hidden records spliced out of decode chains.
	HiddenRepaired uint64
	// Compactions counts segment compaction passes; CompactionBytes the
	// disk bytes they reclaimed.
	Compactions     uint64
	CompactionBytes int64
	// EncodeWorkers is the size of the encoder pool.
	EncodeWorkers int
	// EncodeQueueDepth is the number of encode jobs queued or in flight.
	EncodeQueueDepth int64
	// EncodeOverflows counts client mutations that found their encoder
	// shard full and had to wait for it to drain.
	EncodeOverflows int64
	// InsertsShedRaw counts acknowledged inserts whose dedup encoding was
	// shed by admission control (stored and replicated raw; recoverable by
	// compaction-time re-dedup). Included in Inserts.
	InsertsShedRaw uint64
	// InsertsRejected counts inserts refused with ErrOverloaded. Not
	// included in Inserts — the write did not happen.
	InsertsRejected uint64
	// Admission is the admission controller's snapshot (zero when no
	// controller is configured).
	Admission admission.Snapshot
}

// Node is a single DBMS node (primary or secondary).
type Node struct {
	opts  Options
	store *docstore.Store
	log   *oplog.Log
	eng   *core.Engine
	wb    *dedupcache.WritebackCache

	mu sync.RWMutex
	// keys is lock-free for readers (see keyDir): Read/Has resolve keys
	// without touching n.mu. Writers stay serialised — by n.mu on the
	// client path, by the applier's per-database FIFO on the replica path
	// — and publish a key only after its record is appended.
	keys    keyDir
	refcnt  map[uint64]int    // decode-base reference counts
	version map[uint64]uint32 // bumped on client update/delete
	nextID  uint64
	stats   Stats
	latIns  *metrics.Histogram
	latRead *metrics.Histogram
	opSeq   uint64
	lastMut map[uint64]uint64 // record id -> opSeq of last update/delete

	// Read-path counters are atomics so the lock-free store read path is
	// not re-serialised by bookkeeping; Stats() folds them into the
	// snapshot.
	readsTotal     atomic.Uint64
	decodeSteps    atomic.Uint64
	compactedBytes atomic.Int64
	recentOps      atomic.Int64 // ops since last idle check (idleness proxy)

	// applyMu serialises form-changing rewrites (write-back application
	// and hidden-chain repair) so their refcount updates stay coherent.
	applyMu sync.Mutex

	// Admission controller (nil = admit everything) and the encoder
	// pool's total queue capacity, its occupancy denominator.
	adm         *admission.Controller
	encQueueCap int64
	admRejected atomic.Uint64

	// Encoder pool: jobs are pushed under n.mu, so per-shard job order
	// always matches the order client mutations took effect — the property
	// oplog correctness rests on.
	enc    *shardPool[encodeJob]
	encm   *metrics.EncodeMetrics     // queue gauges; engine's bundle when dedup is on
	applym *metrics.ApplyMetrics      // replication apply-path instrumentation
	replm  *metrics.ReplMetrics       // replication transport hardening counters
	compm  *metrics.CompactionMetrics // compaction pass / re-dedup counters

	wg     sync.WaitGroup
	stopCh chan struct{}
	closed bool
}

type encodeJob struct {
	kind    oplog.OpType
	db, key string
	id      uint64
	payload []byte
	// version is the record's version counter at the time the mutation
	// took effect; write-backs against this record as a base carry it so
	// later client mutations invalidate them.
	version uint32
	// opSeq orders this job among all client mutations; the encoder uses
	// it to detect sources mutated after this insert was accepted.
	opSeq uint64
	// shedRaw marks an insert whose dedup encoding was shed by admission
	// control: the worker emits the raw oplog entry without touching the
	// engine.
	shedRaw bool
}

// Open creates a node.
func Open(opts Options) (*Node, error) {
	if opts.EncodeQueue <= 0 {
		opts.EncodeQueue = 1024
	}
	if opts.EncodeWorkers <= 0 {
		opts.EncodeWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 10 * time.Millisecond
	}
	if opts.IdleFlushBatch <= 0 {
		opts.IdleFlushBatch = 64
	}
	store, err := docstore.Open(docstore.Options{
		Dir:         opts.Dir,
		BlockSize:   opts.BlockSize,
		Compress:    opts.BlockCompression,
		SegmentSize: opts.SegmentSize,
		CacheBlocks: opts.CacheBlocks,
		CacheShards: opts.CacheShards,
		AppendDelay: opts.SimulatedAppendDelay,
		SyncWrites:  opts.SyncWrites,
		FS:          opts.FS,
	})
	if err != nil {
		return nil, err
	}
	n := &Node{
		opts:    opts,
		store:   store,
		log:     oplog.New(opts.OplogCapacity),
		refcnt:  make(map[uint64]int),
		version: make(map[uint64]uint32),
		lastMut: make(map[uint64]uint64),
		nextID:  1,
		latIns:  metrics.NewHistogram(),
		latRead: metrics.NewHistogram(),
		stopCh:  make(chan struct{}),
	}
	if !opts.DisableDedup {
		ecfg := opts.Engine
		// Tiered-index cold runs live next to the store (under the same
		// fault seam) unless the caller picked a directory explicitly.
		if ecfg.IndexDir == "" && opts.Dir != "" {
			ecfg.IndexDir = filepath.Join(opts.Dir, "featidx")
		}
		if ecfg.IndexFS == nil {
			ecfg.IndexFS = opts.FS
		}
		n.eng = core.NewEngine(ecfg, fetcher{n})
		n.encm = n.eng.EncodeMetrics()
	} else {
		n.encm = metrics.NewEncodeMetrics()
	}
	n.applym = metrics.NewApplyMetrics()
	n.compm = metrics.NewCompactionMetrics()
	n.replm = &metrics.ReplMetrics{}
	if opts.WritebackCacheBytes >= 0 {
		n.wb = dedupcache.NewWritebackCache(opts.WritebackCacheBytes)
	}
	if err := n.recover(); err != nil {
		store.Close()
		return nil, err
	}
	n.adm = admission.New(opts.Admission)
	n.encQueueCap = int64(opts.EncodeWorkers) * int64(opts.EncodeQueue)
	n.enc = newShardPool(opts.EncodeWorkers, opts.EncodeQueue, n.process,
		&n.encm.QueueDepth, &n.encm.QueueOverflows)
	if !opts.DisableAutoFlush && n.wb != nil {
		n.wg.Add(1)
		go n.flushLoop()
	}
	if opts.Compaction.Enabled {
		n.startCompactor(opts.Compaction)
	}
	return n, nil
}

// recover rebuilds key maps and reference counts from the store, dropping
// any record whose delta chain no longer reaches a raw base. Crash tears
// only remove a segment suffix — bases always precede their dependants, so
// a tear cannot orphan a survivor — but mid-file corruption (a bad block
// inside an earlier segment) can erase a base out from under later records;
// keeping such a record would leave a key→ID mapping whose reads can never
// decode.
func (n *Node) recover() error {
	maxID := uint64(0)
	var ids []uint64
	err := n.store.Range(func(rec docstore.Record) bool {
		if rec.ID > maxID {
			maxID = rec.ID
		}
		ids = append(ids, rec.ID)
		return true
	})
	if err != nil {
		return err
	}
	// Classify each record by whether its chain grounds in a raw record.
	// Memoised; the depth bound turns corruption-induced base cycles into
	// "broken" instead of unbounded recursion.
	grounded := make(map[uint64]bool, len(ids))
	var walk func(id uint64, depth int) bool
	walk = func(id uint64, depth int) bool {
		if v, ok := grounded[id]; ok {
			return v
		}
		if depth > len(ids) {
			return false
		}
		m, ok := n.store.Meta(id)
		if !ok {
			return false
		}
		ok = m.Form != docstore.FormDelta || walk(m.BaseID, depth+1)
		grounded[id] = ok
		return ok
	}
	for _, id := range ids {
		if !walk(id, 0) {
			// Undecodable: drop it now, and tombstone it so the next
			// replay does not resurface it either.
			if err := n.store.Delete(id); err != nil {
				return err
			}
		}
	}
	for _, id := range ids {
		if !grounded[id] {
			continue
		}
		m, ok := n.store.Meta(id)
		if !ok {
			continue
		}
		if !m.Hidden {
			n.keys.put(m.DB, m.Key, id)
		}
		if m.Form == docstore.FormDelta {
			n.refcnt[m.BaseID]++
		}
	}
	n.nextID = maxID + 1
	return nil
}

// Close drains the encode queues, flushes pending write-backs, and closes
// the store.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()

	n.enc.close()
	close(n.stopCh)
	n.wg.Wait()
	if n.wb != nil {
		n.FlushWritebacks(-1)
	}
	if n.eng != nil {
		n.eng.Close() // encoders drained above; releases tiered cold runs
	}
	return n.store.Close()
}

// Barrier waits until all encode work queued before the call has been
// processed. Tests and experiments use it to observe a settled state. After
// Close it returns at once (Close drained the queues).
func (n *Node) Barrier() { n.enc.barrier() }

// enqueueLocked stamps the job with its mutation order and pushes it on sh,
// the caller's reservation from n.enc.reserve, which the caller took before
// n.mu so backpressure never holds the lock; caller holds n.mu. It returns
// what the caller waits on after unlocking: a sentinel right behind the job
// with SyncEncode, noWait otherwise.
func (n *Node) enqueueLocked(sh *poolShard[encodeJob], job encodeJob) <-chan struct{} {
	n.opSeq++
	job.opSeq = n.opSeq
	n.enc.push(sh, job)
	if !n.opts.SyncEncode {
		return noWait
	}
	return n.enc.sentinel(sh)
}

// ---------------------------------------------------------------- client ops

// Insert stores a new record under (db, key). The record is durable (modulo
// block buffering) when Insert returns; dedup encoding happens behind it.
//
// The admission controller (when configured) is consulted before any
// resource is reserved: a Reject returns ErrOverloaded without touching the
// store or the encode queue, and a ShedRaw admits the write but marks its
// encode job to bypass the dedup workflow — the record is stored, acked,
// and replicated raw.
func (n *Node) Insert(db, key string, payload []byte) error {
	start := time.Now()
	shed := false
	if n.adm != nil {
		switch n.adm.Decide(db, n.encm.QueueDepth.Value(), n.encQueueCap) {
		case admission.Reject:
			n.admRejected.Add(1)
			return ErrOverloaded
		case admission.ShedRaw:
			shed = true
		}
	}
	if err := n.insertAdmitted(db, key, payload, shed); err != nil {
		return err
	}
	elapsed := time.Since(start)
	n.adm.ObserveLatency(elapsed)
	n.latIns.Observe(elapsed)
	return nil
}

// insertAdmitted is Insert past the admission decision: the shard-handoff
// transfer path enters here directly so a loaded destination cannot shed or
// reject rebalance traffic (admission is a client-facing policy; transfers
// move data the cluster already acked).
func (n *Node) insertAdmitted(db, key string, payload []byte, shed bool) error {
	sh := n.enc.reserve(db)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.enc.release(sh)
		return errClosed
	}
	dbm := n.keys.dbMap(db)
	if _, exists := dbm.Load(key); exists {
		n.mu.Unlock()
		n.enc.release(sh)
		return fmt.Errorf("node: %w: %q/%q", ErrDuplicateKey, db, key)
	}
	id := n.nextID
	n.nextID++
	n.stats.Inserts++
	if shed {
		n.stats.InsertsShedRaw++
	}
	n.stats.RawInsertBytes += int64(len(payload))
	n.recentOps.Add(1)
	ver := n.version[id]

	// Store the record raw (paper: new records are always stored in
	// original form; backward encoding touches older records), publish the
	// key, and queue its encode job inside the same critical section, so
	// the oplog order matches the mutation order. The key is published
	// only after the append succeeds: lock-free readers must never
	// resolve a key to a record the store does not hold.
	cp := append([]byte(nil), payload...)
	if err := n.store.Append(docstore.Record{ID: id, DB: db, Key: key, Payload: cp}); err != nil {
		n.mu.Unlock()
		n.enc.release(sh)
		return err
	}
	dbm.Store(key, id)
	done := n.enqueueLocked(sh, encodeJob{kind: oplog.OpInsert, db: db, key: key,
		id: id, payload: cp, version: ver, shedRaw: shed})
	n.mu.Unlock()
	if n.opts.SyncEncode && !shed && n.eng != nil {
		time.Sleep(n.opts.SimulatedEncodeDelay)
	}
	<-done
	return nil
}

// Update overwrites the record's visible content.
func (n *Node) Update(db, key string, payload []byte) error {
	return n.updateLocalEmit(db, key, payload, true)
}

// updateLocal performs the storage-side update without emitting an oplog
// entry (the replication apply path).
func (n *Node) updateLocal(db, key string, payload []byte) error {
	return n.updateLocalEmit(db, key, payload, false)
}

// updateLocalEmit performs the update and, when emit is set, queues the
// oplog job in the same critical section as the version bump so entry order
// matches mutation order.
func (n *Node) updateLocalEmit(db, key string, payload []byte, emit bool) error {
	var sh *poolShard[encodeJob]
	if emit {
		sh = n.enc.reserve(db)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.enc.release(sh)
		return errClosed
	}
	id, ok := n.lookup(db, key)
	if !ok {
		n.mu.Unlock()
		n.enc.release(sh)
		return ErrNotFound
	}
	n.version[id]++
	n.stats.Updates++
	n.recentOps.Add(1)
	refs := n.refcnt[id]
	done := noWait
	if emit {
		done = n.enqueueLocked(sh, encodeJob{kind: oplog.OpUpdate, db: db, key: key,
			id: id, payload: append([]byte(nil), payload...)})
	} else {
		n.opSeq++
	}
	n.lastMut[id] = n.opSeq
	n.mu.Unlock()
	<-done

	// A pending deferred write-back must never clobber fresh client data.
	if n.wb != nil {
		n.wb.Invalidate(id)
	}
	// The cached decode/dedup-source content is stale now.
	if n.eng != nil && n.eng.SourceCache() != nil {
		n.eng.SourceCache().Remove(id)
	}

	cp := append([]byte(nil), payload...)
	if refs == 0 {
		// Nobody decodes through this record: plain overwrite. If the
		// old form was a delta, its base loses a reference.
		var oldBase uint64
		hadBase := false
		if m, okM := n.store.Meta(id); okM && m.Form == docstore.FormDelta {
			oldBase, hadBase = m.BaseID, true
		}
		if err := n.store.Append(docstore.Record{ID: id, DB: db, Key: key, Payload: cp}); err != nil {
			return err
		}
		if hadBase {
			n.releaseRef(oldBase)
		}
	} else {
		// Referenced: keep the stored form intact as section 0 and
		// stack the update on top (paper §4.1, Update).
		rec, okRec, err := n.store.Get(id)
		if err != nil {
			return err
		}
		if !okRec {
			return ErrNotFound
		}
		var stacked []byte
		if rec.Stacked {
			// Replace the visible (last) section.
			sections, err := splitSections(rec.Payload)
			if err != nil {
				return err
			}
			sections[len(sections)-1] = cp
			stacked = joinSections(sections)
		} else {
			stacked = joinSections([][]byte{rec.Payload, cp})
		}
		rec.Stacked = true
		rec.Payload = stacked
		if err := n.store.Append(rec); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the record from the client's view. If other records decode
// through it, it is hidden rather than destroyed and reclaimed later.
func (n *Node) Delete(db, key string) error {
	return n.deleteLocalEmit(db, key, true)
}

// deleteLocal performs the storage-side delete without emitting an oplog
// entry (the replication apply path).
func (n *Node) deleteLocal(db, key string) error {
	return n.deleteLocalEmit(db, key, false)
}

func (n *Node) deleteLocalEmit(db, key string, emit bool) error {
	var sh *poolShard[encodeJob]
	if emit {
		sh = n.enc.reserve(db)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.enc.release(sh)
		return errClosed
	}
	id, ok := n.lookup(db, key)
	if !ok {
		n.mu.Unlock()
		n.enc.release(sh)
		return ErrNotFound
	}
	n.keys.delete(db, key)
	n.version[id]++
	n.stats.Deletes++
	n.recentOps.Add(1)
	refs := n.refcnt[id]
	done := noWait
	if emit {
		done = n.enqueueLocked(sh, encodeJob{kind: oplog.OpDelete, db: db, key: key, id: id})
	} else {
		n.opSeq++
	}
	n.lastMut[id] = n.opSeq
	n.mu.Unlock()
	<-done

	if n.wb != nil {
		n.wb.Invalidate(id)
	}
	if n.eng != nil && n.eng.SourceCache() != nil {
		n.eng.SourceCache().Remove(id)
	}

	if refs == 0 {
		if err := n.reclaim(id); err != nil {
			return err
		}
	} else {
		rec, okRec, err := n.store.Get(id)
		if err != nil {
			return err
		}
		if okRec {
			rec.Hidden = true
			if err := n.store.Append(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// reclaim removes record id from the store and releases its base reference,
// cascading into hidden bases whose last reference disappears and compacting
// stacked ones. It acquires applyMu; use reclaimLocked when already holding
// it.
func (n *Node) reclaim(id uint64) error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	return n.reclaimLocked(id)
}

func (n *Node) reclaimLocked(id uint64) error {
	for {
		rec, ok, err := n.store.Get(id)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := n.store.Delete(id); err != nil {
			return err
		}
		n.mu.Lock()
		// Note: the version entry is retained (not deleted) so pending
		// write-backs that name this record as base keep failing their
		// version check.
		var nextID uint64
		freed := false
		if rec.Form == docstore.FormDelta {
			n.refcnt[rec.BaseID]--
			if n.refcnt[rec.BaseID] <= 0 {
				delete(n.refcnt, rec.BaseID)
				nextID = rec.BaseID
				freed = true
			}
		}
		n.mu.Unlock()
		if !freed {
			return nil
		}
		m, okMeta := n.store.Meta(nextID)
		switch {
		case okMeta && m.Hidden:
			id = nextID // cascade into the deleted base
		case okMeta && m.Stacked:
			n.compactStackedLocked(nextID)
			return nil
		default:
			return nil
		}
	}
}

// Read returns the record's visible content. The key lookup is lock-free
// (keyDir); Read never touches n.mu.
func (n *Node) Read(db, key string) ([]byte, error) {
	start := time.Now()
	id, ok := n.lookup(db, key)
	n.readsTotal.Add(1)
	n.recentOps.Add(1)
	if !ok {
		return nil, ErrNotFound
	}
	content, err := n.decodeVisible(id)
	if err != nil {
		return nil, err
	}
	n.latRead.Observe(time.Since(start))
	return content, nil
}

// lookup resolves (db, key) to a record ID. Lock-free; safe with or
// without n.mu held.
func (n *Node) lookup(db, key string) (uint64, bool) {
	return n.keys.load(db, key)
}

// Has reports whether (db, key) exists. Lock-free.
func (n *Node) Has(db, key string) bool {
	_, ok := n.lookup(db, key)
	return ok
}

// ------------------------------------------------------------------- encode

// process runs the dedup workflow for one queued mutation and emits its
// oplog entry. It runs on the mutation's encoder shard worker.
func (n *Node) process(job encodeJob) {
	switch job.kind {
	case oplog.OpInsert:
		n.processInsert(job)
	case oplog.OpUpdate:
		e := oplog.Entry{TS: time.Now().UnixNano(), Op: oplog.OpUpdate,
			DB: job.db, Key: job.key, Payload: job.payload}
		n.appendOplog(e)
	case oplog.OpDelete:
		e := oplog.Entry{TS: time.Now().UnixNano(), Op: oplog.OpDelete,
			DB: job.db, Key: job.key}
		n.appendOplog(e)
	}
}

func (n *Node) processInsert(job encodeJob) {
	entry := oplog.Entry{TS: time.Now().UnixNano(), Op: oplog.OpInsert,
		DB: job.db, Key: job.key, Form: oplog.FormRaw, Payload: job.payload}

	// A shed insert ships raw: no sketch, no index probe, no delta — the
	// whole point of shedding is that the worker's time per job collapses
	// to an oplog append so the queue drains. The record is already in the
	// store; compaction-time re-dedup can recover the ratio later.
	if job.shedRaw {
		n.appendOplog(entry)
		return
	}

	n.mu.RLock()
	alreadyMutated := n.version[job.id] != job.version || n.lastMut[job.id] > job.opSeq
	n.mu.RUnlock()
	if n.eng != nil && !alreadyMutated {
		if !n.opts.SyncEncode {
			time.Sleep(n.opts.SimulatedEncodeDelay)
		}
		res, err := n.eng.Encode(job.db, job.id, job.payload)
		// If the record was client-mutated while encoding, the engine
		// may have cached its stale insert payload as a dedup source;
		// scrub it. The content-verifying write-back guard below makes
		// any remaining staleness harmless.
		n.mu.RLock()
		mutatedDuring := n.version[job.id] != job.version
		n.mu.RUnlock()
		if mutatedDuring && n.eng.SourceCache() != nil {
			n.eng.SourceCache().Remove(job.id)
		}
		if err == nil && res.Deduped {
			// The forward delta was computed against the source's
			// *current* content. The secondary decodes it against the
			// source content as of this entry's position in the oplog,
			// so if the source was client-mutated after this insert was
			// accepted, the two differ: ship raw instead. The local
			// write-backs stay valid (they are version-guarded).
			n.mu.RLock()
			srcMutatedSince := n.lastMut[res.SourceID] > job.opSeq
			n.mu.RUnlock()
			srcKey, ok := n.keyOf(res.SourceID)
			if ok && !srcMutatedSince {
				entry.Form = oplog.FormDelta
				entry.BaseKey = srcKey
				entry.Payload = res.Forward.Marshal()
			}
			n.queueWritebacks(res.Writebacks, job.id, job.version)
		}
	}
	n.appendOplog(entry)
}

// keyOf returns the client key of record id (hidden records excluded).
func (n *Node) keyOf(id uint64) (string, bool) {
	m, ok := n.store.Meta(id)
	if !ok || m.Hidden {
		return "", false
	}
	return m.Key, true
}

func (n *Node) appendOplog(e oplog.Entry) {
	n.log.Append(e)
	n.mu.Lock()
	n.stats.OplogBytes += int64(e.MarshalledSize())
	n.mu.Unlock()
}

// queueWritebacks routes the engine's write-back decisions through the lossy
// cache (or applies them inline when the cache is disabled). newID/newVer
// identify the just-inserted record and its version at insert time: deltas
// were computed against its insert payload, so client mutations to it in
// the meantime (version[newID] != newVer) must invalidate them — the stored
// version guard captures exactly that.
func (n *Node) queueWritebacks(wbs []core.Writeback, newID uint64, newVer uint32) {
	for _, wb := range wbs {
		n.mu.RLock()
		ver := n.version[wb.ID]
		baseVer := n.version[wb.Base]
		if wb.Base == newID {
			baseVer = newVer
		}
		n.mu.RUnlock()
		payload := encodeWritebackPayload(wb, ver, baseVer)
		if n.wb == nil {
			n.applyWriteback(wb.ID, payload)
			continue
		}
		n.wb.Add(dedupcache.Writeback{ID: wb.ID, Payload: payload, Saving: wb.EstimatedSaving})
	}
}

// Write-back payloads carry (base, version-of-record, version-of-base,
// delta) so the flusher can validate, long after the encode decision, that
// neither the record nor the content it would decode from has been changed
// by the client in the meantime.
func encodeWritebackPayload(wb core.Writeback, version, baseVersion uint32) []byte {
	out := binary.AppendUvarint(nil, wb.Base)
	out = binary.AppendUvarint(out, uint64(version))
	out = binary.AppendUvarint(out, uint64(baseVersion))
	return append(out, wb.Delta.Marshal()...)
}

func decodeWritebackPayload(p []byte) (base uint64, version, baseVersion uint32, deltaBytes []byte, err error) {
	base, k := binary.Uvarint(p)
	if k <= 0 {
		return 0, 0, 0, nil, errors.New("node: bad write-back payload")
	}
	p = p[k:]
	v, k := binary.Uvarint(p)
	if k <= 0 {
		return 0, 0, 0, nil, errors.New("node: bad write-back payload")
	}
	p = p[k:]
	bv, k := binary.Uvarint(p)
	if k <= 0 {
		return 0, 0, 0, nil, errors.New("node: bad write-back payload")
	}
	return base, uint32(v), uint32(bv), p[k:], nil
}

// FlushWritebacks applies up to max pending write-backs (all of them when
// max < 0), returning how many were applied. The batch is chosen
// best-saving first (§3.3.2) but applied in ascending record ID: every
// write-back re-encodes an older record against a newer one, so in that
// order each guard decode of a base reads a record this batch has not yet
// converted instead of walking the chains it has just built. The order
// changes no guard outcome, so the same write-backs apply.
func (n *Node) FlushWritebacks(max int) int {
	if n.wb == nil {
		return 0
	}
	if max < 0 {
		max = n.wb.Len()
	}
	batch := n.wb.DrainBest(max)
	slices.SortFunc(batch, func(a, b dedupcache.Writeback) int { return cmp.Compare(a.ID, b.ID) })
	applied := 0
	for _, wb := range batch {
		if n.applyWriteback(wb.ID, wb.Payload) {
			applied++
		}
	}
	return applied
}

// PendingWritebacks returns the size of the write-back backlog.
func (n *Node) PendingWritebacks() int {
	if n.wb == nil {
		return 0
	}
	return n.wb.Len()
}

// applyWriteback replaces record id's stored form with the backward delta,
// unless the record — or the base it would decode from — changed since the
// delta was computed. Skipping is always safe: the record just stays in its
// older, larger form (the "lossy" property of §3.3.2).
func (n *Node) applyWriteback(id uint64, payload []byte) bool {
	base, ver, baseVer, deltaBytes, err := decodeWritebackPayload(payload)
	if err != nil {
		return false
	}
	n.applyMu.Lock()
	defer n.applyMu.Unlock()

	n.mu.Lock()
	if n.version[id] != ver || n.version[base] != baseVer {
		n.stats.WritebacksSkipped++
		n.mu.Unlock()
		return false
	}
	n.mu.Unlock()

	rec, ok, err := n.store.Get(id)
	if err != nil || !ok {
		return false
	}
	if rec.Stacked || rec.Hidden {
		// Changed shape since encode; leave it alone (lossy is fine).
		n.mu.Lock()
		n.stats.WritebacksSkipped++
		n.mu.Unlock()
		return false
	}
	// The chain this re-encoding creates must still ground in a raw record.
	// Write-backs alone cannot cycle (they re-encode an older record
	// against a newer one and the newest stays raw), but a compaction-time
	// re-dedup conversion can point a newer record at an older one — a
	// queued write-back in the opposite direction would then close a
	// cycle, which recovery refuses to ground, losing the whole chain.
	// Both writers walk under applyMu, so whichever commits second sees
	// the other's committed form and skips (lossy is fine).
	if !n.rededupStillSafe(id, base, int(n.store.Stats().LiveRecords)+1) {
		n.mu.Lock()
		n.stats.WritebacksSkipped++
		n.mu.Unlock()
		return false
	}
	oldForm, oldBase := rec.Form, rec.BaseID

	// End-to-end guard: the re-encoding must reproduce exactly the
	// content this record currently decodes to. The version checks above
	// are fast-path filters; this catches every residual staleness
	// (e.g. a delta computed from a cache entry that a concurrent client
	// mutation invalidated mid-encode). Skipping costs only compression.
	cur, err := n.decodeRecord(rec, false)
	if err != nil {
		return false
	}
	baseContent, err := n.decodeBase(base, false)
	if err != nil {
		n.mu.Lock()
		n.stats.WritebacksSkipped++
		n.mu.Unlock()
		return false
	}
	d, err := delta.Unmarshal(deltaBytes)
	if err != nil {
		return false
	}
	if !delta.Matches(baseContent, d, cur) {
		n.mu.Lock()
		n.stats.WritebacksSkipped++
		n.mu.Unlock()
		return false
	}

	rec.Form = docstore.FormDelta
	rec.BaseID = base
	rec.Payload = deltaBytes
	if err := n.store.Append(rec); err != nil {
		return false
	}

	n.mu.Lock()
	n.refcnt[base]++
	n.stats.WritebacksApplied++
	n.mu.Unlock()
	if oldForm == docstore.FormDelta {
		n.releaseRefLocked(oldBase)
	}
	return true
}

// releaseRef decrements a base's reference count. A record that becomes
// unreferenced is reclaimed if the client had deleted it (hidden), or
// compacted back to plain form if it carries stacked client updates
// (paper §4.1: "when the reference count reaches zero, dbDedup compacts all
// the updates to the record and replaces it with the new data").
// It acquires applyMu; use releaseRefLocked when already holding it.
func (n *Node) releaseRef(baseID uint64) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	n.releaseRefLocked(baseID)
}

func (n *Node) releaseRefLocked(baseID uint64) {
	n.mu.Lock()
	n.refcnt[baseID]--
	gone := n.refcnt[baseID] <= 0
	if gone {
		delete(n.refcnt, baseID)
	}
	n.mu.Unlock()
	if !gone {
		return
	}
	m, ok := n.store.Meta(baseID)
	if !ok {
		return
	}
	switch {
	case m.Hidden:
		n.reclaimLocked(baseID)
	case m.Stacked:
		n.compactStackedLocked(baseID)
	}
}

// compactStackedLocked rewrites an unreferenced stacked record as a plain
// raw record holding its visible content. Caller holds applyMu.
func (n *Node) compactStackedLocked(id uint64) {
	n.mu.RLock()
	refs := n.refcnt[id]
	n.mu.RUnlock()
	if refs > 0 {
		return // re-referenced concurrently
	}
	rec, ok, err := n.store.Get(id)
	if err != nil || !ok || !rec.Stacked {
		return
	}
	sections, err := splitSections(rec.Payload)
	if err != nil {
		return
	}
	visible := sections[len(sections)-1]
	oldForm, oldBase := rec.Form, rec.BaseID
	rec.Stacked = false
	rec.Form = docstore.FormRaw
	rec.BaseID = 0
	rec.Payload = append([]byte(nil), visible...)
	if err := n.store.Append(rec); err != nil {
		return
	}
	if oldForm == docstore.FormDelta {
		n.releaseRefLocked(oldBase)
	}
}

// flushLoop applies write-backs when the node looks idle (the paper's I/O
// queue length signal; our proxy is the client op rate plus the encode
// queue depth).
func (n *Node) flushLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
			busy := n.recentOps.Swap(0) > 4
			if busy {
				continue
			}
			if n.encm.QueueDepth.Value() > 0 {
				continue
			}
			n.FlushWritebacks(n.opts.IdleFlushBatch)
		}
	}
}

// ------------------------------------------------------------------- decode

// fetcher adapts the node to core.Fetcher. The engine needs the content a
// delta against this record would decode from — the record's base content
// (original, pre-stacked-update).
type fetcher struct{ n *Node }

func (f fetcher) FetchDecoded(id uint64) ([]byte, error) {
	return f.n.decodeBase(id, true)
}

// decodeVisible returns what a client read of record id yields.
func (n *Node) decodeVisible(id uint64) ([]byte, error) {
	rec, ok, err := n.store.Get(id)
	if err != nil {
		return nil, err
	}
	if !ok || rec.Hidden {
		return nil, ErrNotFound
	}
	if rec.Stacked {
		sections, err := splitSections(rec.Payload)
		if err != nil {
			return nil, err
		}
		return sections[len(sections)-1], nil
	}
	return n.decodeRecord(rec, true)
}

// decodeBase returns the content other records decode through: the original
// content, ignoring stacked client updates. Callers already holding applyMu
// pass allowRepair false (chain repair takes it).
func (n *Node) decodeBase(id uint64, allowRepair bool) ([]byte, error) {
	rec, ok, err := n.store.Get(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("node: decode base %d missing", id)
	}
	if rec, err = storedForm(rec); err != nil {
		return nil, err
	}
	return n.decodeRecord(rec, allowRepair)
}

// storedForm returns rec as other records decode through it: a stacked
// record reduced to its section 0 (the form it had before client updates
// were stacked on top), any other record unchanged.
func storedForm(rec docstore.Record) (docstore.Record, error) {
	if !rec.Stacked {
		return rec, nil
	}
	sections, err := splitSections(rec.Payload)
	if err != nil {
		return rec, err
	}
	rec.Payload = sections[0]
	rec.Stacked = false
	return rec, nil
}

// decodeRecord resolves rec's delta chain. rec.Payload must already be the
// record's own stored form (section 0 for stacked records).
func (n *Node) decodeRecord(rec docstore.Record, allowRepair bool) ([]byte, error) {
	if rec.Form == docstore.FormRaw {
		return rec.Payload, nil
	}
	// Walk the chain collecting deltas until a decodable base is found.
	type step struct {
		id      uint64
		d       delta.Delta
		isHid   bool
		content []byte // filled during the apply pass
	}
	var steps []step
	var baseContent []byte
	baseID := uint64(0)
	baseHidden := false
	baseFromCache := false
	cur := rec
	for {
		d, err := delta.Unmarshal(cur.Payload)
		if err != nil {
			return nil, fmt.Errorf("node: record %d: %w", cur.ID, err)
		}
		steps = append(steps, step{id: cur.ID, d: d, isHid: cur.Hidden})
		baseID = cur.BaseID

		// Source record cache: a decoded base short-circuits the walk.
		if n.eng != nil && n.eng.SourceCache() != nil {
			if c, ok := n.eng.SourceCache().Get(baseID); ok {
				// Cached content is the record's base content only
				// when it has no stacked updates.
				if m, okM := n.store.Meta(baseID); okM && !m.Stacked {
					baseContent = c
					baseHidden = m.Hidden
					baseFromCache = true
					break
				}
			}
		}

		next, ok, err := n.store.Get(baseID)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("node: record %d: base %d missing", cur.ID, baseID)
		}
		n.decodeSteps.Add(1)
		if next, err = storedForm(next); err != nil {
			return nil, err
		}
		if next.Form == docstore.FormRaw {
			baseContent = next.Payload
			baseHidden = next.Hidden
			break
		}
		cur = next
		if len(steps) > 1<<20 {
			return nil, errors.New("node: decode chain cycle")
		}
	}

	// Apply the deltas from the base outward, keeping each intermediate
	// content for potential chain repair.
	content := baseContent
	for i := len(steps) - 1; i >= 0; i-- {
		var err error
		content, err = delta.Apply(content, steps[i].d)
		if err != nil {
			return nil, fmt.Errorf("node: applying delta for record %d: %w", steps[i].id, err)
		}
		steps[i].content = content
	}

	// Opportunistic repair (paper §4.1, Garbage Collection): the first
	// hidden record on the path gets spliced out by re-binding its
	// dependant directly to the record behind it (or to raw form when
	// the hidden record terminates the chain).
	if !allowRepair {
		return content, nil
	}
	if !baseFromCache || !baseHidden {
		for i := 0; i+1 < len(steps); i++ {
			if steps[i+1].isHid {
				n.repairPastHidden(steps[i].id, steps[i+1].id, steps[i].content)
				baseHidden = false // at most one repair per read
				break
			}
		}
	}
	if baseHidden && len(steps) > 0 {
		last := steps[len(steps)-1]
		n.repairPastHidden(last.id, baseID, last.content)
	}
	return content, nil
}

// repairPastHidden re-binds record depID (whose decoded content is
// depContent) past the hidden record hidID: to hidID's own base when hidID
// is delta-encoded, or back to raw form when hidID terminates the chain.
// One reference to hidID is released, eventually reclaiming it.
func (n *Node) repairPastHidden(depID, hidID uint64, depContent []byte) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()

	// Re-verify under the lock: the dependant must still decode through
	// the hidden record, and the hidden record must still be hidden.
	depMeta, ok := n.store.Meta(depID)
	if !ok || depMeta.Form != docstore.FormDelta || depMeta.BaseID != hidID {
		return
	}
	hidMeta, ok := n.store.Meta(hidID)
	if !ok || !hidMeta.Hidden {
		return
	}
	dep, ok, err := n.store.Get(depID)
	if err != nil || !ok {
		return
	}

	var newPayload []byte
	newForm := docstore.FormRaw
	var newBaseID uint64
	if hidMeta.Form == docstore.FormDelta {
		// Splice: delta the dependant directly against the hidden
		// record's own base.
		hidRec, okH, errH := n.store.Get(hidID)
		if errH != nil || !okH {
			return
		}
		newBaseID = hidRec.BaseID
		baseContent, err := n.decodeBase(newBaseID, false)
		if err != nil {
			return
		}
		d := delta.Compress(baseContent, depContent, delta.Options{})
		newPayload = d.Marshal()
		newForm = docstore.FormDelta
	} else {
		// The hidden record terminates the chain: the dependant goes
		// back to raw form.
		newPayload = append([]byte(nil), depContent...)
	}

	if dep.Stacked {
		sections, err := splitSections(dep.Payload)
		if err != nil {
			return
		}
		sections[0] = newPayload
		dep.Payload = joinSections(sections)
	} else {
		dep.Payload = newPayload
	}
	dep.Form = newForm
	dep.BaseID = newBaseID
	if err := n.store.Append(dep); err != nil {
		return
	}
	n.mu.Lock()
	if newForm == docstore.FormDelta {
		n.refcnt[newBaseID]++
	}
	n.stats.HiddenRepaired++
	n.mu.Unlock()
	n.releaseRefLocked(hidID)
}

// ------------------------------------------------------------------ getters

// Oplog exposes the node's operation log to the replication layer.
func (n *Node) Oplog() *oplog.Log { return n.log }

// LastAssignedSeq returns the newest mutation sequence number handed out to
// a client op. Assignment happens in the same n.mu critical section that
// makes the mutation visible, so any record a Snapshot scan observed has its
// oplog seq covered by this value — unlike Oplog().LastSeq(), which only
// advances once the encoder worker appends the entry and can therefore trail
// a visible insert.
func (n *Node) LastAssignedSeq() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.opSeq
}

// Engine exposes the dedup engine (nil when dedup is disabled).
func (n *Node) Engine() *core.Engine { return n.eng }

// Store exposes the underlying record store.
func (n *Node) Store() *docstore.Store { return n.store }

// InsertLatency and ReadLatency expose the client latency histograms.
func (n *Node) InsertLatency() *metrics.Histogram { return n.latIns }
func (n *Node) ReadLatency() *metrics.Histogram   { return n.latRead }

// EncodeMetrics exposes the encode-path instrumentation: per-stage latency
// histograms (populated when dedup is enabled), throughput meters, and the
// encoder-pool queue gauges.
func (n *Node) EncodeMetrics() *metrics.EncodeMetrics { return n.encm }

// ApplyMetrics exposes the replication apply-path instrumentation (populated
// when this node runs as a secondary behind an Applier).
func (n *Node) ApplyMetrics() *metrics.ApplyMetrics { return n.applym }

// ReplMetrics exposes the replication transport hardening counters
// (reconnects, backoff, corrupt-frame rejections, idle timeouts) — populated
// when this node replicates over repl without an explicit metrics bundle.
func (n *Node) ReplMetrics() *metrics.ReplMetrics { return n.replm }

// CompactionMetrics exposes the compaction pass / re-dedup counter bundle.
func (n *Node) CompactionMetrics() *metrics.CompactionMetrics { return n.compm }

// CompactionSnapshot summarises compaction and the re-dedup pass for the
// admin endpoint, including the store's mmap/pread read-path split.
func (n *Node) CompactionSnapshot() metrics.CompactionSnapshot {
	snap := n.compm.Snapshot()
	st := n.store.Stats()
	snap.MmapBlockReads = st.MmapBlockReads
	snap.PreadBlockReads = st.PreadBlockReads
	snap.MmapFailures = st.MmapFailures
	return snap
}

// FeatIdxSnapshot summarises the similarity index (occupancy against its
// bound, lookup/match/eviction counts) for the admin endpoint. Zero-valued
// when dedup is disabled.
func (n *Node) FeatIdxSnapshot() metrics.FeatIdxSnapshot {
	if n.eng == nil {
		return metrics.FeatIdxSnapshot{}
	}
	es := n.eng.Stats()
	ti := es.TieredIdx
	return metrics.FeatIdxSnapshot{
		Entries:       es.IndexEntries,
		MemoryBytes:   es.IndexMemoryBytes,
		CapacityBytes: es.IndexCapacityBytes,
		Lookups:       es.IndexLookups,
		Matches:       es.IndexMatches,
		Evictions:     es.IndexEvictions,

		TieredEnabled:             ti.Enabled,
		TieredBudgetBytes:         ti.BudgetBytes,
		TieredHotEntries:          ti.HotEntries,
		TieredPendingEntries:      ti.PendingEntries,
		TieredColdRuns:            ti.ColdRuns,
		TieredResidentRuns:        ti.ResidentRuns,
		TieredColdEntries:         ti.ColdEntries,
		TieredColdDiskBytes:       ti.ColdDiskBytes,
		TieredBloomMemoryBytes:    ti.BloomMemoryBytes,
		TieredBloomChecks:         ti.BloomChecks,
		TieredBloomHits:           ti.BloomHits,
		TieredBloomFalsePositives: ti.BloomFalsePositives,
		TieredDiskProbes:          ti.DiskProbes,
		TieredDiskProbeHits:       ti.DiskProbeHits,
		TieredDiskReadErrors:      ti.DiskReadErrors,
		TieredFreezes:             ti.Freezes,
		TieredFreezeFailures:      ti.FreezeFailures,
		TieredMerges:              ti.Merges,
		TieredMergeFailures:       ti.MergeFailures,
		TieredDroppedRuns:         ti.DroppedRuns,
	}
}

// Stats returns a node snapshot.
func (n *Node) Stats() Stats {
	n.mu.RLock()
	s := n.stats
	n.mu.RUnlock()
	s.Store = n.store.Stats()
	if n.eng != nil {
		s.Engine = n.eng.Stats()
	}
	s.Reads = n.readsTotal.Load()
	s.DecodeSteps = n.decodeSteps.Load()
	s.CompactionBytes = n.compactedBytes.Load()
	s.EncodeWorkers = len(n.enc.shards)
	s.EncodeQueueDepth = n.encm.QueueDepth.Value()
	s.EncodeOverflows = n.encm.QueueOverflows.Total()
	s.InsertsRejected = n.admRejected.Load()
	s.Admission = n.adm.Snapshot()
	return s
}

// AdmissionSnapshot summarises the admission controller for the admin
// endpoint (zero-valued when no controller is configured).
func (n *Node) AdmissionSnapshot() admission.Snapshot { return n.adm.Snapshot() }

// ReadSnapshot summarises the read path for the admin endpoint: client read
// latency, block-cache outcomes down to the shard, and the segment-reader
// lifetime gauges (pinned handles, retirements awaiting drain).
func (n *Node) ReadSnapshot() metrics.ReadSnapshot {
	st := n.store.Stats()
	snap := metrics.ReadSnapshot{
		Latency:        metrics.SummarizeHistogram(n.latRead),
		CacheHits:      st.CacheHits,
		CacheMisses:    st.CacheMisses,
		PinnedReaders:  st.PinnedReaders,
		RetiredPending: st.RetiredPending,
		LiveSegments:   st.LiveSegments,
	}
	for _, sh := range n.store.CacheShardStats() {
		snap.CacheShards = append(snap.CacheShards, metrics.CacheShardSnapshot{
			Shard: sh.Shard, Hits: sh.Hits, Misses: sh.Misses, Blocks: sh.Blocks,
		})
	}
	return snap
}

// DBStats returns the engine's per-database partitions (nil when dedup is
// disabled).
func (n *Node) DBStats() []core.DBStats {
	if n.eng == nil {
		return nil
	}
	stats := n.eng.DBStats()
	for i := range stats {
		stats[i].StoredBytes = n.store.DBLogicalBytes(stats[i].Name)
	}
	return stats
}

// RefCount returns the decode-base reference count of (db, key)'s record.
func (n *Node) RefCount(db, key string) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	id, ok := n.lookup(db, key)
	if !ok {
		return 0
	}
	return n.refcnt[id]
}

// ------------------------------------------------------------- stacked utils

func splitSections(p []byte) ([][]byte, error) {
	var out [][]byte
	for len(p) > 0 {
		l, k := binary.Uvarint(p)
		if k <= 0 || uint64(len(p)-k) < l {
			return nil, errors.New("node: corrupt stacked payload")
		}
		out = append(out, p[k:k+int(l)])
		p = p[k+int(l):]
	}
	if len(out) == 0 {
		return nil, errors.New("node: empty stacked payload")
	}
	return out, nil
}

func joinSections(sections [][]byte) []byte {
	var out []byte
	for _, s := range sections {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}

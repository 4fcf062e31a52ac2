package node

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dbdedup/internal/oplog"
)

// asyncNode opens a node with the background encoder pool enabled (the
// production configuration; testNode forces SyncEncode).
func asyncNode(t *testing.T, opts Options) *Node {
	t.Helper()
	if opts.Engine.GovernorWindow == 0 {
		opts.Engine.GovernorWindow = 1 << 30
	}
	opts.DisableAutoFlush = true
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestEncoderPoolPerDatabaseOrder floods several databases from concurrent
// client goroutines and verifies the invariant replication rests on: within
// each database, oplog entries appear in exactly the order the mutations took
// effect, regardless of how many workers drain the shards.
func TestEncoderPoolPerDatabaseOrder(t *testing.T) {
	const (
		dbs      = 6 // more databases than workers: shards are shared
		versions = 25
		workers  = 4
	)
	n := asyncNode(t, Options{EncodeWorkers: workers, EncodeQueue: 8})

	var wg sync.WaitGroup
	for d := 0; d < dbs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(d)))
			db := fmt.Sprintf("db%d", d)
			content := prose(rng, 4096)
			for v := 0; v < versions; v++ {
				if err := n.Insert(db, fmt.Sprintf("v%d", v), content); err != nil {
					t.Errorf("%s v%d: %v", db, v, err)
					return
				}
				content = editText(rng, content, 2)
			}
		}(d)
	}
	wg.Wait()
	n.Barrier()

	entries, err := n.Oplog().EntriesSince(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != dbs*versions {
		t.Fatalf("%d oplog entries, want %d", len(entries), dbs*versions)
	}
	// Per database, the version sequence must be 0,1,2,... in log order.
	next := make(map[string]int)
	for _, e := range entries {
		if e.Op != oplog.OpInsert {
			t.Fatalf("unexpected op %v", e.Op)
		}
		v, err := strconv.Atoi(strings.TrimPrefix(e.Key, "v"))
		if err != nil {
			t.Fatalf("bad key %q", e.Key)
		}
		if v != next[e.DB] {
			t.Fatalf("%s: oplog shipped v%d before v%d — per-database order broken",
				e.DB, v, next[e.DB])
		}
		next[e.DB]++
	}

	if depth := n.Stats().EncodeQueueDepth; depth != 0 {
		t.Errorf("queue depth %d after Barrier, want 0", depth)
	}
}

// TestEncoderPoolForwardDeltasStillShip ensures the async pool produces the
// same kind of oplog compression the synchronous path does: version chains
// ship as forward deltas referencing their in-database predecessor.
func TestEncoderPoolForwardDeltasStillShip(t *testing.T) {
	n := asyncNode(t, Options{EncodeWorkers: 2})
	insertChain(t, n, "wiki", 20, 7)
	n.Barrier()

	entries, err := n.Oplog().EntriesSince(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	deltas := 0
	for _, e := range entries {
		if e.Form == oplog.FormDelta {
			deltas++
			if e.BaseKey == "" {
				t.Fatalf("delta entry for %q lacks a base key", e.Key)
			}
		}
	}
	if deltas < 15 {
		t.Errorf("only %d/20 entries forward-encoded; async pool lost dedup", deltas)
	}
}

// TestEncoderBackpressure bounds a single shard at one slot and verifies
// that (a) clients stall instead of queueing unboundedly, (b) the stalls are
// counted, and (c) no accepted work is lost.
func TestEncoderBackpressure(t *testing.T) {
	const inserts = 60
	n := asyncNode(t, Options{EncodeWorkers: 1, EncodeQueue: 1})

	rng := rand.New(rand.NewSource(3))
	content := prose(rng, 8192)
	for v := 0; v < inserts; v++ {
		if err := n.Insert("db", fmt.Sprintf("v%d", v), content); err != nil {
			t.Fatal(err)
		}
		content = editText(rng, content, 2)
	}
	n.Barrier()

	st := n.Stats()
	if st.EncodeOverflows == 0 {
		t.Error("no overflow stalls recorded with a 1-slot queue; backpressure not exercised")
	}
	if st.EncodeQueueDepth != 0 {
		t.Errorf("queue depth %d after Barrier, want 0", st.EncodeQueueDepth)
	}
	if got := n.Oplog().Len(); got != inserts {
		t.Errorf("oplog has %d entries, want %d — backpressure dropped work", got, inserts)
	}
}

// TestBarrierOnSyncAndClosedNode pins Barrier's edge cases: in synchronous
// mode it returns at once (every mutation already waited for its job), and
// after Close it returns at once (Close drained the queues).
func TestBarrierOnSyncAndClosedNode(t *testing.T) {
	sn := testNode(t, Options{})
	sn.Barrier() // must not hang: nothing is queued

	an, err := Open(Options{EncodeWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Insert("db", "k", []byte("payload big enough to be a record")); err != nil {
		t.Fatal(err)
	}
	an.Close()
	an.Barrier() // must not hang: workers are gone
	if got := an.Oplog().Len(); got != 1 {
		t.Errorf("oplog has %d entries after Close, want 1 (Close drains the queue)", got)
	}
}

// TestEncoderPoolConcurrentMixedOps runs inserts, updates, deletes, and reads
// against an async node from many goroutines, then verifies every surviving
// record decodes to its latest content. Under -race this exercises the full
// producer/worker locking (n.mu → shard.mu, semaphore hand-off, barrier
// sentinels vs. capacity tokens).
func TestEncoderPoolConcurrentMixedOps(t *testing.T) {
	const (
		dbs      = 4
		versions = 20
	)
	n := asyncNode(t, Options{EncodeWorkers: 2, EncodeQueue: 4})

	var wg sync.WaitGroup
	finals := make([][]byte, dbs)
	for d := 0; d < dbs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + d)))
			db := fmt.Sprintf("db%d", d)
			content := prose(rng, 4096)
			for v := 0; v < versions; v++ {
				key := fmt.Sprintf("v%d", v)
				if err := n.Insert(db, key, content); err != nil {
					t.Errorf("%s insert: %v", db, err)
					return
				}
				switch v % 5 {
				case 2:
					content = editText(rng, content, 1)
					if err := n.Update(db, key, content); err != nil {
						t.Errorf("%s update: %v", db, err)
						return
					}
				case 3:
					if err := n.Delete(db, key); err != nil {
						t.Errorf("%s delete: %v", db, err)
						return
					}
				default:
					if _, err := n.Read(db, key); err != nil {
						t.Errorf("%s read: %v", db, err)
						return
					}
				}
				content = editText(rng, content, 2)
			}
			finals[d] = content
		}(d)
	}
	wg.Wait()
	n.Barrier()
	n.FlushWritebacks(-1)

	// Every surviving version must still decode exactly.
	for d := 0; d < dbs; d++ {
		db := fmt.Sprintf("db%d", d)
		for v := 0; v < versions; v++ {
			key := fmt.Sprintf("v%d", v)
			got, err := n.Read(db, key)
			if v%5 == 3 {
				if err != ErrNotFound {
					t.Errorf("%s/%s: deleted record read err = %v, want ErrNotFound", db, key, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s/%s: %v", db, key, err)
				continue
			}
			if len(got) == 0 {
				t.Errorf("%s/%s: empty content", db, key)
			}
		}
	}
	rep := n.VerifyAll()
	if !rep.Ok() {
		t.Errorf("integrity scrub failed after concurrent mixed ops: %+v", rep)
	}
}

// TestShardForStable pins the shard hash: all mutations of one database must
// map to one shard (the ordering invariant depends on it).
func TestShardForStable(t *testing.T) {
	n := asyncNode(t, Options{EncodeWorkers: 4})
	for _, db := range []string{"users", "orders", "wiki", ""} {
		first := n.enc.shardFor(db)
		for i := 0; i < 10; i++ {
			if n.enc.shardFor(db) != first {
				t.Fatalf("shardFor(%q) not stable", db)
			}
		}
	}
}

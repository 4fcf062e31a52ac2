package node

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dbdedup/internal/metrics"
	"dbdedup/internal/oplog"
)

// gatedPool is a one-shard pool whose jobs block until the test releases
// them, so a test can hold a shard full for as long as it likes.
func gatedPool(t *testing.T, queue int) (*shardPool[int], *metrics.Gauge, *metrics.Meter, chan struct{}) {
	t.Helper()
	var depth metrics.Gauge
	var overflows metrics.Meter
	gate := make(chan struct{})
	p := newShardPool(1, queue, func(int) { <-gate }, &depth, &overflows)
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
		p.close()
	})
	return p, &depth, &overflows, gate
}

func waitClosed(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never resolved", what)
	}
}

// TestPoolBarrierOnFullShard pins that sentinels bypass the capacity tokens:
// a barrier queued on a shard whose every token is held must not block the
// caller, and resolves once the jobs ahead of it have run.
func TestPoolBarrierOnFullShard(t *testing.T) {
	p, depth, _, gate := gatedPool(t, 1)
	p.push(p.reserve("db"), 1) // the only token; the worker blocks on it

	barrierDone := make(chan struct{})
	go func() {
		p.barrier()
		close(barrierDone)
	}()
	select {
	case <-barrierDone:
		t.Fatal("barrier returned while the job ahead of it was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	waitClosed(t, barrierDone, "barrier on a full shard")
	if d := depth.Value(); d != 0 {
		t.Errorf("depth %d after barrier, want 0", d)
	}
}

// TestPoolOverflowPerBlockedReserve pins the overflow count: a reservation
// that finds its shard full counts exactly one overflow however long it
// waits, and a reservation that finds room counts none.
func TestPoolOverflowPerBlockedReserve(t *testing.T) {
	const blocked = 3
	p, _, overflows, gate := gatedPool(t, 1)
	p.push(p.reserve("db"), 0)
	if got := overflows.Total(); got != 0 {
		t.Fatalf("overflows %d after a reservation that found room, want 0", got)
	}

	var wg sync.WaitGroup
	for i := 1; i <= blocked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.push(p.reserve("db"), i)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for overflows.Total() < blocked {
		if time.Now().After(deadline) {
			t.Fatalf("overflows %d, want %d blocked reservations counted", overflows.Total(), blocked)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a blocked reserve must not count again while waiting
	close(gate)
	wg.Wait()
	p.barrier()
	if got := overflows.Total(); got != blocked {
		t.Errorf("overflows %d, want exactly %d (one per blocked reservation)", got, blocked)
	}
}

// TestSyncEncodeCloseDrainsInFlightInsert is the regression test for Close
// racing a SyncEncode insert: the insert's encode used to run on the
// caller's goroutine after n.mu was released, so Close could close the
// engine and store under it and return before its oplog entry existed.
func TestSyncEncodeCloseDrainsInFlightInsert(t *testing.T) {
	n, err := Open(Options{SyncEncode: true, DisableAutoFlush: true,
		SimulatedEncodeDelay: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	insErr := make(chan error, 1)
	go func() {
		insErr <- n.Insert("db", "k", prose(rand.New(rand.NewSource(1)), 4096))
	}()
	deadline := time.Now().Add(10 * time.Second)
	for n.Stats().Inserts != 1 {
		if time.Now().After(deadline) {
			t.Fatal("insert never took effect")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if got := n.Oplog().Len(); got != 1 {
		t.Errorf("oplog has %d entries after Close, want 1 (Close must drain the in-flight encode)", got)
	}
	if err := <-insErr; err != nil {
		t.Errorf("insert: %v", err)
	}

	// After Close nothing waits on the drained pool: Barrier returns, and
	// mutations fail instead of queueing a job no worker will run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.Barrier()
		if err := n.Update("db", "k", []byte("new")); err == nil {
			t.Error("Update after Close succeeded")
		}
		if err := n.Delete("db", "k"); err == nil {
			t.Error("Delete after Close succeeded")
		}
	}()
	waitClosed(t, done, "Barrier, Update and Delete after Close on a SyncEncode node")
}

// TestSyncEncodeOplogOnReturn pins SyncEncode's contract under concurrency:
// when an Insert, Update or Delete returns, its oplog entry already exists.
// Eight callers share fewer shards than databases. Runs under -race in CI.
func TestSyncEncodeOplogOnReturn(t *testing.T) {
	const callers, versions = 8, 15
	n := testNode(t, Options{EncodeWorkers: 3})

	has := func(op oplog.OpType, db, key string) bool {
		entries, err := n.Oplog().EntriesSince(0, -1)
		if err != nil {
			t.Error(err)
			return false
		}
		for i := len(entries) - 1; i >= 0; i-- {
			if e := entries[i]; e.Op == op && e.DB == db && e.Key == key {
				return true
			}
		}
		return false
	}

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			db := fmt.Sprintf("db%d", c)
			content := prose(rng, 2048)
			for v := 0; v < versions; v++ {
				key := fmt.Sprintf("v%d", v)
				if err := n.Insert(db, key, content); err != nil {
					t.Errorf("%s/%s insert: %v", db, key, err)
					return
				}
				if !has(oplog.OpInsert, db, key) {
					t.Errorf("%s/%s: Insert returned before its oplog entry existed", db, key)
				}
				content = editText(rng, content, 2)
				switch v % 3 {
				case 1:
					if err := n.Update(db, key, content); err != nil {
						t.Errorf("%s/%s update: %v", db, key, err)
						return
					}
					if !has(oplog.OpUpdate, db, key) {
						t.Errorf("%s/%s: Update returned before its oplog entry existed", db, key)
					}
				case 2:
					if err := n.Delete(db, key); err != nil {
						t.Errorf("%s/%s delete: %v", db, key, err)
						return
					}
					if !has(oplog.OpDelete, db, key) {
						t.Errorf("%s/%s: Delete returned before its oplog entry existed", db, key)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	want := callers * (versions + versions/3*2)
	if got := n.Oplog().Len(); got != want {
		t.Errorf("oplog has %d entries, want %d", got, want)
	}
}

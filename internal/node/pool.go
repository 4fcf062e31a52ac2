package node

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"dbdedup/internal/metrics"
)

// shardPool is the database-sharded job pool behind both the encoder (client
// mutations → oplog entries) and the replica Applier (replicated entries →
// local store). Jobs are hashed by database name onto shards, each drained by
// one worker in FIFO order, so the jobs of one database run in the order
// they were pushed while independent databases run in parallel — the
// invariant oplog correctness rests on (paper §3.1, §4.1).
//
// Each shard holds at most queue jobs. A producer reserves a capacity token
// before its mutation takes effect (blocking, and counting one overflow, when
// the shard is full) and pushes the job later, inside whatever critical
// section fixes its order; the worker returns the token after running the
// job. Sentinels bypass the tokens: they represent no work and must never
// deadlock against a full shard. close drains every queue before returning.
//
// Lock hierarchy: producers may push while holding their own locks (the
// encoder pushes under n.mu); a worker pops holding only its shard lock and
// never takes a producer lock while holding it.
type shardPool[J any] struct {
	shards    []*poolShard[J]
	run       func(J)
	depth     *metrics.Gauge // jobs queued or running
	overflows *metrics.Meter // reservations that found their shard full
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// poolShard is one worker's FIFO queue.
type poolShard[J any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []poolItem[J]
	sem  chan struct{} // one token per reserved or queued job
}

type poolItem[J any] struct {
	job  J
	done chan struct{} // non-nil: a sentinel, closed when the worker reaches it
}

// newShardPool starts one worker per shard, each running run on its jobs.
func newShardPool[J any](workers, queue int, run func(J), depth *metrics.Gauge, overflows *metrics.Meter) *shardPool[J] {
	p := &shardPool[J]{
		shards:    make([]*poolShard[J], workers),
		run:       run,
		depth:     depth,
		overflows: overflows,
	}
	for i := range p.shards {
		sh := &poolShard[J]{sem: make(chan struct{}, queue)}
		sh.cond = sync.NewCond(&sh.mu)
		p.shards[i] = sh
		p.wg.Add(1)
		go p.worker(sh)
	}
	return p
}

// shardFor maps a database name to its shard (FNV-1a). All jobs of one
// database land on one shard, which is what gives them FIFO order.
func (p *shardPool[J]) shardFor(db string) *poolShard[J] {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(db))
	return p.shards[h.Sum32()%uint32(len(p.shards))]
}

// reserve blocks until db's shard has capacity and returns it. Producers
// reserve before taking the lock that orders their job, so backpressure
// never holds a lock and never reorders jobs.
func (p *shardPool[J]) reserve(db string) *poolShard[J] {
	sh := p.shardFor(db)
	select {
	case sh.sem <- struct{}{}:
	default:
		// Shard at capacity: count the stall, then wait for the worker.
		p.overflows.Add(1)
		sh.sem <- struct{}{}
	}
	return sh
}

// release returns a reservation whose job will not be pushed (nil: none was
// taken).
func (p *shardPool[J]) release(sh *poolShard[J]) {
	if sh != nil {
		<-sh.sem
	}
}

// push queues job on sh, the caller's reservation. Jobs must not be pushed
// once close has begun.
func (p *shardPool[J]) push(sh *poolShard[J], job J) {
	p.depth.Add(1)
	sh.mu.Lock()
	sh.q = append(sh.q, poolItem[J]{job: job})
	sh.cond.Signal()
	sh.mu.Unlock()
}

// sentinel queues a marker behind every job already on sh and returns a
// channel that is closed when the worker reaches it. On a closed pool whose
// shard has drained it resolves at once: that worker may already have
// exited. Checking under the shard lock makes this safe against a
// concurrent close.
func (p *shardPool[J]) sentinel(sh *poolShard[J]) <-chan struct{} {
	done := make(chan struct{})
	sh.mu.Lock()
	if p.closed.Load() && len(sh.q) == 0 {
		close(done)
	} else {
		sh.q = append(sh.q, poolItem[J]{done: done})
		sh.cond.Signal()
	}
	sh.mu.Unlock()
	return done
}

// barrier waits until every job pushed before the call has run.
func (p *shardPool[J]) barrier() {
	dones := make([]<-chan struct{}, len(p.shards))
	for i, sh := range p.shards {
		dones[i] = p.sentinel(sh)
	}
	for _, done := range dones {
		<-done
	}
}

// close stops the workers once they have drained their queues, so no
// accepted job is dropped. Only the first call waits.
func (p *shardPool[J]) close() {
	if p.closed.Swap(true) {
		return
	}
	for _, sh := range p.shards {
		sh.mu.Lock()
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	p.wg.Wait()
}

func (p *shardPool[J]) worker(sh *poolShard[J]) {
	defer p.wg.Done()
	for {
		sh.mu.Lock()
		for len(sh.q) == 0 && !p.closed.Load() {
			sh.cond.Wait()
		}
		if len(sh.q) == 0 {
			sh.mu.Unlock()
			return
		}
		it := sh.q[0]
		sh.q[0] = poolItem[J]{} // let the job's payload be collected
		sh.q = sh.q[1:]
		sh.mu.Unlock()
		if it.done != nil {
			close(it.done)
			continue
		}
		p.run(it.job)
		p.depth.Add(-1)
		<-sh.sem
	}
}

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/chain"
	"dbdedup/internal/core"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
	"dbdedup/internal/workload"
)

const (
	mixTenants      = 16
	mixConns        = 2
	mixReadSampling = 20 // keep every 20th read of each family's read mix
)

// tenantMix is the only workload that crosses apiserver framing, n.mu shared
// by connections, encode-queue dwell, oplog → repl ship → applier and
// compaction, with reads beside writes on low-redundancy families where the
// governor and size filter decide.
//
// Its timed phase is a closed loop: each of 2 tenant-affine connections
// sends its tenants' operations back to back, in order. An open loop at a
// fixed rate would be the better model of independent tenants, but on a
// 2-vCPU VM its latencies, which hang on timer wakeups and a spinning
// generator, moved 15-30% at the median between runs, more than a bound can
// absorb. The traced run adds an open-loop phase after the closed loop: a
// Poisson schedule released by a sleep-then-spin generator, timed from each
// operation's due time. Its tail latencies, generator lateness, replication
// lag and the insert attribution are per-layer figures without a bound.
var tenantMix = workloadDef{
	name: "tenant-mix",
	policy: "dbdedupd defaults on a temp dir: async encoders, idle write-back flusher on, " +
		"auto-compact on, no block compression, SyncWrites off; in-process secondary over repl; " +
		"timed phase: closed loop over 2 tenant-affine apiserver connections; traced runs add " +
		"an open-loop Poisson phase",
	overhead:   "mean insert µs (closed loop)",
	repSeconds: 1,
	setup:      setupMix,
}

// dbdedupdOptions mirrors dbdedupd's flag defaults.
func dbdedupdOptions() node.Options {
	return node.Options{
		Engine:     core.Config{ChunkAvgSize: 64, Scheme: chain.Hop, HopDistance: 16},
		Compaction: node.CompactionOptions{Enabled: true, RededupMaxChainDepth: 8},
	}
}

// mixOp is one scheduled operation.
type mixOp struct {
	due     time.Duration // open-loop phase: since the phase started
	conn    int
	insert  bool
	db, key string
	payload []byte // the insert's payload, or the payload a read must return
}

// mixSchedule pre-generates a repetition's operations: closed operations for
// the closed loop, then, for the open-loop phase, Poisson arrivals at rate
// over open. Each operation is the next one of the next tenant, in rounds
// that visit every tenant once in a seeded order (so every tenant gets the
// same share of the load on every seed). Tenant i always uses connection
// i % mixConns.
func mixSchedule(seed int64, closed int, rate float64, open time.Duration) []mixOp {
	type tenant struct {
		prefix  string
		trace   *workload.Trace
		written map[string][]byte
	}
	tenants := make([]*tenant, mixTenants)
	for i := range tenants {
		tenants[i] = &tenant{
			prefix: fmt.Sprintf("t%02d_", i),
			trace: workload.New(workload.Config{Kind: workload.Kinds[i%len(workload.Kinds)],
				Seed: tenantSeed(seed, i), InsertBytes: 1 << 40, Reads: true, ReadSampling: mixReadSampling}),
			written: map[string][]byte{},
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7e11a47))
	var ops []mixOp
	var at time.Duration
	var round []int
	for {
		if len(ops) >= closed {
			at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if at >= open {
				return ops
			}
		}
		if len(round) == 0 {
			round = rng.Perm(mixTenants)
		}
		ti := round[0]
		round = round[1:]
		t := tenants[ti]
		for {
			op, _ := t.trace.Next() // traces are sized to never run dry
			m := mixOp{due: at, conn: ti % mixConns, db: t.prefix + op.DB, key: op.Key}
			if op.Kind == workload.OpInsert {
				m.insert, m.payload = true, op.Payload
				t.written[op.Key] = op.Payload
			} else if m.payload = t.written[op.Key]; m.payload == nil {
				continue // a read of a key this tenant never wrote is not an operation
			}
			ops = append(ops, m)
			break
		}
	}
}

type mixRep struct {
	prim, sec       *node.Node
	primDir, secDir string
	api             *apiserver.Server
	rp              *repl.Primary
	follower        *repl.Secondary
	clients         []*apiserver.Client
	sched           []mixOp
	closed          int // sched[:closed] is the closed loop, the rest the open-loop phase
	rep             int
}

func setupMix(cfg config, rep int) (repetition, error) {
	r := &mixRep{closed: cfg.scale.mixOps, rep: rep}
	var err error
	if r.prim, r.primDir, err = openNode(cfg.workDir, "primary-", dbdedupdOptions()); err != nil {
		return nil, err
	}
	if r.sec, r.secDir, err = openNode(cfg.workDir, "secondary-", dbdedupdOptions()); err != nil {
		r.close()
		return nil, err
	}
	if r.api, err = apiserver.ListenAndServe(r.prim, "127.0.0.1:0"); err != nil {
		r.close()
		return nil, err
	}
	if r.rp, err = repl.ListenAndServe(r.prim, "127.0.0.1:0"); err != nil {
		r.close()
		return nil, err
	}
	if r.follower, err = repl.ConnectWithOptions(r.sec, r.rp.Addr(), 0, 0, repl.Options{MaxReconnects: 1 << 20}); err != nil {
		r.close()
		return nil, err
	}
	for c := 0; c < mixConns; c++ {
		cl, err := apiserver.Dial(r.api.Addr())
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	r.sched = mixSchedule(repSeed(cfg.seed, rep), r.closed, cfg.scale.mixRate, cfg.scale.mixOpen)
	return r, nil
}

func (r *mixRep) close() {
	for _, c := range r.clients {
		c.Close()
	}
	if r.follower != nil {
		r.follower.Close()
	}
	if r.rp != nil {
		r.rp.Close()
	}
	if r.api != nil {
		r.api.Close()
	}
	for _, n := range []*node.Node{r.prim, r.sec} {
		if n != nil {
			n.Close()
		}
	}
	os.RemoveAll(r.primDir)
	os.RemoveAll(r.secDir)
}

// waitUntil returns at t. A bare time.Sleep wakes up to a millisecond late
// on Linux, several times the service time being measured, so it covers
// only all but the last 1.5 ms, which are spun. The spin neither yields nor
// blocks: spinning with runtime.Gosched keeps the P from ever polling the
// network, and a blocking nanosleep(2) holds the P in a syscall, with the
// goroutines it readied and its timers stuck behind it until sysmon retakes
// it (up to 10 ms). Either delayed the goroutines being measured by more
// than the spin costs.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2500*time.Microsecond {
		time.Sleep(d - 1500*time.Microsecond)
	}
	for time.Now().Before(t) {
	}
}

// mixOutcome is what a connection worker observed for one operation. In
// the closed loop an operation is due when it is sent, so late, wait are 0
// and total is rtt.
type mixOutcome struct {
	late, wait, rtt, total time.Duration
	acked                  bool
}

type lagProbe struct {
	db, key string
	acked   time.Time
	op      uint64
}

// mixPhase is one phase's shared state: the outcome of every scheduled
// operation, each connection's errors, and (traced open loop only) the
// replication lag probes.
type mixPhase struct {
	tr     *tracer
	rootID uint64
	out    []mixOutcome
	errs   [][]string
	probes chan lagProbe
}

// do sends operation i over connection c and records its outcome.
func (r *mixRep) do(ph *mixPhase, l *lane, c, i int, due, dispatched time.Time) {
	op := &r.sched[i]
	cl := r.clients[c]
	sent := time.Now()
	var err error
	var got []byte
	name := "apiserver.Get"
	if op.insert {
		name = "apiserver.Insert"
		err = cl.Insert(op.db, op.key, op.payload)
	} else {
		got, err = cl.Get(op.db, op.key)
	}
	done := time.Now()
	o := &ph.out[i]
	o.late, o.wait, o.rtt, o.total = dispatched.Sub(due), sent.Sub(dispatched), done.Sub(sent), done.Sub(due)
	if l != nil {
		opID, opSpan := uint64(i+1), ph.tr.id()
		l.add(ph.tr.id(), "gen.late", opID, opSpan, due, dispatched)
		l.add(ph.tr.id(), "conn.wait", opID, opSpan, dispatched, sent)
		l.add(ph.tr.id(), name, opID, opSpan, sent, done)
		l.add(opSpan, "op", opID, ph.rootID, due, done)
	}
	switch {
	case err != nil:
		ph.errs[c] = append(ph.errs[c], fmt.Sprintf("%s %s/%s: %v", name, op.db, op.key, err))
	case !op.insert && !bytes.Equal(got, op.payload):
		ph.errs[c] = append(ph.errs[c], fmt.Sprintf("get %s/%s: payload mismatch", op.db, op.key))
	default:
		o.acked = true
		if op.insert && ph.probes != nil {
			ph.probes <- lagProbe{op.db, op.key, done, uint64(i + 1)}
		}
	}
}

// closedLoop runs sched[:closed]: each connection sends its own operations
// back to back, in schedule order.
func (r *mixRep) closedLoop(ph *mixPhase) {
	var wg sync.WaitGroup
	for c := 0; c < mixConns; c++ {
		wg.Add(1)
		go func(c int, l *lane) {
			defer wg.Done()
			for i := range r.sched[:r.closed] {
				if r.sched[i].conn == c {
					now := time.Now()
					r.do(ph, l, c, i, now, now)
				}
			}
		}(c, ph.tr.lane())
	}
	wg.Wait()
}

// openLoop runs sched[closed:]: one generator goroutine releases every
// operation at its due time to its tenant's connection, in order. It
// returns the replication lag of every insert it acked.
func (r *mixRep) openLoop(ph *mixPhase) []time.Duration {
	ph.probes = make(chan lagProbe, len(r.sched))
	var lags []time.Duration
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func(l *lane) {
		defer probeWG.Done()
		for p := range ph.probes {
			deadline := p.acked.Add(30 * time.Second)
			for !r.sec.Has(p.db, p.key) && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			now := time.Now()
			lags = append(lags, now.Sub(p.acked))
			l.add(ph.tr.id(), "secondary.visible", p.op, ph.rootID, p.acked, now)
		}
	}(ph.tr.lane())

	queues := make([]chan int, mixConns)
	for c := range queues {
		queues[c] = make(chan int, len(r.sched)) // never blocks the generator
	}
	dispatched := make([]time.Time, len(r.sched))
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < mixConns; c++ {
		wg.Add(1)
		go func(c int, l *lane) {
			defer wg.Done()
			for i := range queues[c] {
				r.do(ph, l, c, i, start.Add(r.sched[i].due), dispatched[i])
			}
		}(c, ph.tr.lane())
	}
	for i := r.closed; i < len(r.sched); i++ {
		waitUntil(start.Add(r.sched[i].due))
		dispatched[i] = time.Now()
		queues[r.sched[i].conn] <- i
		// Let the worker just readied onto this P run now, instead of
		// waiting behind the next spin.
		runtime.Gosched()
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	close(ph.probes)
	probeWG.Wait()
	return lags
}

// latencies splits the acked operations of sched[from:to] into insert and
// read latencies (from due time) and sums the inserts' payload bytes.
func (r *mixRep) latencies(out []mixOutcome, from, to int) (ins, reads []time.Duration, insBytes int64) {
	for i := from; i < to; i++ {
		switch o := out[i]; {
		case !o.acked:
		case r.sched[i].insert:
			ins = append(ins, o.total)
			insBytes += int64(len(r.sched[i].payload))
		default:
			reads = append(reads, o.total)
		}
	}
	return ins, reads, insBytes
}

func (r *mixRep) run(tr *tracer) *repResult {
	res := newRepResult()
	ph := &mixPhase{tr: tr, rootID: tr.id(), out: make([]mixOutcome, len(r.sched)), errs: make([][]string, mixConns)}
	heap := startHeapSampler()
	before := takeSnap(r.prim)
	start := time.Now()
	r.closedLoop(ph)
	end := time.Now()
	heapMB := heap.stopMiB()
	tr.lane().add(ph.rootID, "phase.timed", 0, 0, start, end)
	// Space is judged once the deferred write-backs are applied, as an
	// idle node would apply them.
	r.prim.Barrier()
	r.prim.FlushWritebacks(-1)
	after := takeSnap(r.prim)
	if r.rep == 0 {
		st := after.st.Store
		fmt.Printf("tenant-mix sizes: raw %.1f MiB, stored logical %.1f MiB, block bytes out %.1f MiB, dead %.1f MiB (compaction starts at half)\n",
			mib(after.st.RawInsertBytes), mib(st.LogicalBytes), mib(st.BlockBytesOut), mib(st.DeadBytes))
	}

	ins, reads, insBytes := r.latencies(ph.out, 0, r.closed)
	res.lat["insert"], res.lat["read"] = ins, reads
	res.attempted += int64(r.closed)
	wall := end.Sub(start)
	res.timed = wall
	res.overhead = us(meanDur(ins))
	res.e2e["ingest_mb_s"] = mib(insBytes) / wall.Seconds()
	res.e2e["goodput_ops_s"] = float64(len(ins)+len(reads)) / wall.Seconds()
	res.e2e["heap_peak_mb"] = heapMB
	storageRatios(res.frac, after.st)

	if tr != nil {
		nodeLayers(res.layer, before, after, int64(r.closed))
		r.openLayers(res, ph)
	}
	for c := range ph.errs {
		for _, e := range ph.errs[c] {
			res.fail("%s", e)
		}
	}
	r.checkSecondary(res, ph.out)
	return res
}

// openLayers runs the traced open-loop phase and records its per-layer
// figures and the insert attribution.
func (r *mixRep) openLayers(res *repResult, ph *mixPhase) {
	// Start from a caught-up secondary, so the phase's lag is its own.
	if err := r.follower.WaitForSeq(r.prim.Oplog().LastSeq(), time.Minute); err != nil {
		res.fail("secondary catch-up before the open loop: %v", err)
	}
	before := takeSnap(r.prim)
	openRoot := ph.tr.id()
	start := time.Now()
	lags := r.openLoop(ph)
	end := time.Now()
	ph.tr.lane().add(openRoot, "phase.open", 0, 0, start, end)
	r.prim.Barrier()
	after := takeSnap(r.prim)
	res.attempted += int64(len(r.sched) - r.closed)

	ins, reads, _ := r.latencies(ph.out, r.closed, len(r.sched))
	res.tail = map[string][]time.Duration{"insert": ins, "read": reads}
	var late, rtt, insLate, insWait, insRTT []time.Duration
	for i := r.closed; i < len(r.sched); i++ {
		o := ph.out[i]
		late, rtt = append(late, o.late), append(rtt, o.rtt)
		if r.sched[i].insert && o.acked {
			insLate, insWait, insRTT = append(insLate, o.late), append(insWait, o.wait), append(insRTT, o.rtt)
		}
	}
	p := percentiles(late, 0.50, 0.99)
	res.layer["gen.late_us_p50"], res.layer["gen.late_us_p99"] = us(p[0]), us(p[1])
	p = percentiles(rtt, 0.50, 0.99)
	res.layer["apiserver.rtt_us_p50"], res.layer["apiserver.rtt_us_p99"] = us(p[0]), us(p[1])
	nodeIns := nodeInsertMeanUS(before, after)
	res.layer["apiserver.self_us_mean"] = us(meanDur(insRTT)) - nodeIns
	insH, rdH := r.prim.InsertLatency(), r.prim.ReadLatency()
	res.layer["node.insert_us_p50"], res.layer["node.insert_us_p99"] = us(insH.Quantile(0.50)), us(insH.Quantile(0.99))
	res.layer["node.read_us_p50"], res.layer["node.read_us_p99"] = us(rdH.Quantile(0.50)), us(rdH.Quantile(0.99))
	apply := r.sec.ApplyMetrics().Latency()
	res.layer["repl.apply_us_p50"], res.layer["repl.apply_us_p99"] = us(apply.Quantile(0.50)), us(apply.Quantile(0.99))
	res.layer["repl.base_fetches"] = float64(r.follower.BaseFetches())
	res.layer["repl.reconnects"] = float64(r.follower.Metrics().Reconnects.Total())
	// The compactor checks once a second; over a closed loop of about a
	// second it rarely gets to run, so count the whole repetition.
	res.layer["docstore.compaction_bytes"] = float64(after.st.CompactionBytes)
	res.layer["repl.bytes_sent_per_raw_byte"] = ratio(float64(r.rp.BytesSent()), float64(after.st.RawInsertBytes))
	p = percentiles(lags, 0.50, 0.99)
	res.layer["repl.lag_ms_p50"], res.layer["repl.lag_ms_p99"] = us(p[0])/1e3, us(p[1])/1e3

	total := us(meanDur(ins))
	lateUS, waitUS := us(meanDur(insLate)), us(meanDur(insWait))
	self := res.layer["apiserver.self_us_mean"]
	res.attrib = []attribRow{
		{"open loop: gen.late (due to dispatch)", lateUS, "us"},
		{"  conn.wait (dispatch to send: behind earlier ops)", waitUS, "us"},
		{"  apiserver self (rtt minus node insert)", self, "us"},
		{"  node.Insert (server side)", nodeIns, "us"},
		{"  residual", total - lateUS - waitUS - self - nodeIns, "us"},
		{"  = mean insert latency from due time", total, "us"},
	}
}

// checkSecondary waits for the secondary to catch up, then re-reads every
// acknowledged insert there byte for byte and scrubs both nodes' chains.
func (r *mixRep) checkSecondary(res *repResult, out []mixOutcome) {
	res.attempted++
	if err := r.follower.WaitForSeq(r.prim.Oplog().LastSeq(), time.Minute); err != nil {
		res.fail("secondary catch-up: %v", err)
		return
	}
	for i, op := range r.sched {
		if !op.insert || !out[i].acked {
			continue
		}
		res.attempted++
		got, err := r.sec.Read(op.db, op.key)
		if err != nil {
			res.fail("secondary read %s/%s: %v", op.db, op.key, err)
		} else if !bytes.Equal(got, op.payload) {
			res.fail("secondary read %s/%s: payload mismatch", op.db, op.key)
		}
	}
	verifyChains(r.prim, "primary", res)
	verifyChains(r.sec, "secondary", res)
}

package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"dbdedup/internal/node"
)

const (
	historyTenants  = 8
	historyReaders  = 2
	historyLatestPc = 25 // share of reads that go to a latest revision, %
)

// readHistory: the hop-chain decode (delta.Apply per step, keyDir, the
// docstore/segio block cache and blockcomp) does all the work; nothing is
// written in the timed phase, so the encode path is bypassed.
var readHistory = workloadDef{
	name: "read-history",
	policy: "load: SyncEncode, block compression on, idle flusher off, one FlushWritebacks(-1) " +
		"after the load, SyncWrites off, no compaction; default block cache (64 x 32 KiB = 2 MiB); " +
		"timed phase: 2 closed-loop readers, a fixed read sequence each, no writes",
	overhead:   "mean read µs",
	repSeconds: 0.5,
	setup:      setupHistory,
}

type historyRep struct {
	n        *node.Node
	dir      string
	recs     []record
	plans    [][]int // per reader: indexes into recs
	loadLats []time.Duration
	loadTime time.Duration
	raw      int64
	rep      int
}

func setupHistory(cfg config, rep int) (repetition, error) {
	seed := repSeed(cfg.seed, rep)
	corpus := wikiCorpus(seed, historyTenants, cfg.scale.historyBytes)
	r := &historyRep{recs: interleave(corpus, clientTenants(historyTenants, 1, 0)), raw: rawBytes(corpus), rep: rep}
	var err error
	r.n, r.dir, err = openNode(cfg.workDir, "history-", node.Options{
		BlockCompression: true, SyncEncode: true, DisableAutoFlush: true})
	if err != nil {
		return nil, err
	}
	// One loader, so the store layout repeats for a seed.
	start := time.Now()
	r.loadLats = make([]time.Duration, 0, len(r.recs))
	for _, rec := range r.recs {
		t0 := time.Now()
		if err := r.n.Insert(rec.db, rec.key, rec.payload); err != nil {
			r.close()
			return nil, fmt.Errorf("load %s/%s: %w", rec.db, rec.key, err)
		}
		r.loadLats = append(r.loadLats, time.Since(t0))
	}
	r.n.FlushWritebacks(-1)
	r.loadTime = time.Since(start)
	r.plans = historyPlans(seed, r.recs, cfg.scale.historyReads)
	// Reads are checked against hashes; drop the payloads so the heap
	// the timed phase starts from holds the node, not the inputs.
	for i := range r.recs {
		r.recs[i].payload = nil
	}
	return r, nil
}

// historyPlans pre-generates each reader's n reads: historyLatestPc% go to
// the latest revision of a uniformly chosen article, the rest to a uniformly
// chosen older revision of a uniformly chosen article that has one. Choosing
// the article first keeps a few long, often-revised articles from taking
// most reads, so a read's cost follows the spread of article sizes, not the
// history of whichever articles a corpus revised most. A fixed sequence (not
// a time limit) makes the per-read counts repeat exactly for a seed.
func historyPlans(seed int64, recs []record, n int) [][]int {
	revs := map[string][]int{} // db/article -> record indexes, oldest first
	var articles, revised []string
	for i, rec := range recs {
		a := rec.db + "/" + rec.key[:strings.IndexByte(rec.key, '/')]
		if len(revs[a]) == 0 {
			articles = append(articles, a)
		} else if len(revs[a]) == 1 {
			revised = append(revised, a)
		}
		revs[a] = append(revs[a], i) // records arrive in revision order
	}
	plans := make([][]int, historyReaders)
	for c := range plans {
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		plans[c] = make([]int, n)
		for j := range plans[c] {
			if len(revised) == 0 || rng.Intn(100) < historyLatestPc {
				h := revs[articles[rng.Intn(len(articles))]]
				plans[c][j] = h[len(h)-1]
			} else {
				h := revs[revised[rng.Intn(len(revised))]]
				plans[c][j] = h[rng.Intn(len(h)-1)]
			}
		}
	}
	return plans
}

func (r *historyRep) close() {
	r.n.Close()
	os.RemoveAll(r.dir)
}

func (r *historyRep) run(tr *tracer) *repResult {
	res := newRepResult()
	res.lat["insert"] = r.loadLats
	res.e2e["ingest_mb_s"] = mib(r.raw) / r.loadTime.Seconds()
	st := r.n.Stats()
	storageRatios(res.frac, st)
	if r.rep == 0 {
		fmt.Printf("read-history sizes: raw %.1f MiB, stored logical %.1f MiB, block bytes %.1f MiB in / %.1f MiB out, %d records\n",
			mib(r.raw), mib(st.Store.LogicalBytes), mib(st.Store.BlockBytesIn), mib(st.Store.BlockBytesOut), len(r.recs))
	}

	heap := startHeapSampler()
	before := takeSnap(r.n)
	rootID := tr.id()
	lats := make([][]time.Duration, historyReaders)
	errs := make([][]string, historyReaders)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < historyReaders; c++ {
		wg.Add(1)
		go func(c int, l *lane) {
			defer wg.Done()
			lats[c] = make([]time.Duration, 0, len(r.plans[c]))
			for j, i := range r.plans[c] {
				rec := r.recs[i]
				t0 := time.Now()
				got, err := r.n.Read(rec.db, rec.key)
				t1 := time.Now()
				lats[c] = append(lats[c], t1.Sub(t0))
				l.add(tr.id(), "node.Read", uint64(c)<<32|uint64(j+1), rootID, t0, t1)
				if err != nil {
					errs[c] = append(errs[c], fmt.Sprintf("read %s/%s: %v", rec.db, rec.key, err))
				} else if payloadHash(got) != rec.hash {
					errs[c] = append(errs[c], fmt.Sprintf("read %s/%s: payload mismatch", rec.db, rec.key))
				}
			}
		}(c, tr.lane())
	}
	wg.Wait()
	end := time.Now()
	heapMB := heap.stopMiB()
	tr.lane().add(rootID, "phase.timed", 0, 0, start, end)
	after := takeSnap(r.n)

	var reads int64
	for c := range lats {
		reads += int64(len(lats[c]))
		res.lat["read"] = append(res.lat["read"], lats[c]...)
		for _, e := range errs[c] {
			res.fail("%s", e)
		}
	}
	res.attempted += reads
	wall := end.Sub(start)
	res.timed = wall
	res.overhead = us(meanDur(res.lat["read"]))
	res.e2e["goodput_ops_s"] = float64(reads) / wall.Seconds()
	res.e2e["heap_peak_mb"] = heapMB
	verifyChains(r.n, "primary", res)

	if tr != nil {
		nodeLayers(res.layer, before, after, reads)
		spans := tr.durations("node.Read")
		p := percentiles(spans, 0.50, 0.99)
		res.layer["node.read_us_p50"] = us(p[0])
		res.layer["node.read_us_p99"] = us(p[1])
		res.attrib = []attribRow{
			{"mean read (closed loop, 2 readers)", us(meanDur(res.lat["read"])), "us"},
			{"  node.Read span mean", us(meanDur(spans)), "us"},
			{"  decode steps (base fetches) per read", res.layer["node.decode_steps_per_read"], "count"},
			{"  block lookups per read", res.layer["docstore.block_lookups_per_read"], "count"},
			{"  block cache hit share", res.layer["docstore.block_cache_hit_share"], "share"},
			{"  encode busy in timed phase (must be 0)", res.layer["core.encode_busy_s"], "s"},
		}
	}
	return res
}

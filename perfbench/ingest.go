package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"dbdedup/internal/node"
)

const (
	ingestTenants = 8
	ingestClients = 2
)

// ingestWiki: the encode pipeline (chunker → sketch → featidx → source cache
// → delta → chain/write-back) and the store's write path do almost all the
// work; the timed phase has no reads, so the decode path is bypassed. Reads
// happen only in the read-back check after the timed phase.
var ingestWiki = workloadDef{
	name: "ingest-wiki",
	policy: "default node.Options on a temp dir: async encoders, idle write-back flusher on, " +
		"no block compression, SyncWrites off, no compaction; timed phase ends when " +
		"Barrier and FlushWritebacks(-1) return",
	overhead:   "timed-phase wall seconds",
	repSeconds: 0.25,
	setup:      setupIngest,
}

type ingestRep struct {
	n       *node.Node
	dir     string
	corpus  [][]record
	raw     int64
	clients [][]record
}

func setupIngest(cfg config, rep int) (repetition, error) {
	corpus := wikiCorpus(repSeed(cfg.seed, rep), ingestTenants, cfg.scale.ingestBytes)
	r := &ingestRep{corpus: corpus, raw: rawBytes(corpus)}
	for c := 0; c < ingestClients; c++ {
		r.clients = append(r.clients, interleave(corpus, clientTenants(ingestTenants, ingestClients, c)))
	}
	var err error
	r.n, r.dir, err = openNode(cfg.workDir, "ingest-", node.Options{})
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (r *ingestRep) close() {
	r.n.Close()
	os.RemoveAll(r.dir)
}

func (r *ingestRep) run(tr *tracer) *repResult {
	res := newRepResult()
	heap := startHeapSampler()
	before := takeSnap(r.n)
	ml := tr.lane()
	rootID, insertsID := tr.id(), tr.id()

	lats := make([][]time.Duration, ingestClients)
	errs := make([][]string, ingestClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < ingestClients; c++ {
		wg.Add(1)
		go func(c int, l *lane) {
			defer wg.Done()
			recs := r.clients[c]
			lats[c] = make([]time.Duration, 0, len(recs))
			for i, rec := range recs {
				t0 := time.Now()
				err := r.n.Insert(rec.db, rec.key, rec.payload)
				t1 := time.Now()
				lats[c] = append(lats[c], t1.Sub(t0))
				l.add(tr.id(), "node.Insert", uint64(c)<<32|uint64(i+1), insertsID, t0, t1)
				if err != nil {
					errs[c] = append(errs[c], fmt.Sprintf("insert %s/%s: %v", rec.db, rec.key, err))
				}
			}
		}(c, tr.lane())
	}
	wg.Wait()
	insertsEnd := time.Now()
	r.n.Barrier()
	barrierEnd := time.Now()
	r.n.FlushWritebacks(-1)
	end := time.Now()
	heapMB := heap.stopMiB()
	ml.add(insertsID, "phase.inserts", 0, rootID, start, insertsEnd)
	ml.add(tr.id(), "node.Barrier", 0, rootID, insertsEnd, barrierEnd)
	ml.add(tr.id(), "node.FlushWritebacks", 0, rootID, barrierEnd, end)
	ml.add(rootID, "phase.timed", 0, 0, start, end)
	after := takeSnap(r.n)

	var inserts int64
	for c := range lats {
		inserts += int64(len(lats[c]))
		res.lat["insert"] = append(res.lat["insert"], lats[c]...)
		for _, e := range errs[c] {
			res.fail("%s", e)
		}
	}
	res.attempted += inserts
	wall := end.Sub(start)
	res.timed = wall
	res.overhead = wall.Seconds()
	res.e2e["ingest_mb_s"] = mib(r.raw) / wall.Seconds()
	res.e2e["goodput_ops_s"] = float64(inserts) / wall.Seconds()
	res.e2e["heap_peak_mb"] = heapMB
	storageRatios(res.frac, after.st)

	// Correctness: every record read back against its generation hash,
	// then a full chain scrub. Not part of the timed phase.
	var all []record
	for _, recs := range r.corpus {
		all = append(all, recs...)
	}
	res.lat["read"] = readBack(r.n, all, res)
	verifyChains(r.n, "primary", res)

	if tr != nil {
		nodeLayers(res.layer, before, after, inserts)
		p := percentiles(tr.durations("node.Insert"), 0.50, 0.99)
		res.layer["node.insert_us_p50"] = us(p[0])
		res.layer["node.insert_us_p99"] = us(p[1])
		res.layer["node.barrier_s"] = tr.total("node.Barrier").Seconds()
		res.layer["node.flush_s"] = tr.total("node.FlushWritebacks").Seconds()
		phase := tr.total("phase.inserts").Seconds()
		res.attrib = []attribRow{
			{"insert phase (first insert to last ack)", phase, "s"},
			{"node.Barrier (encode queue drain)", res.layer["node.barrier_s"], "s"},
			{"node.FlushWritebacks(-1)", res.layer["node.flush_s"], "s"},
			{"residual", wall.Seconds() - phase - res.layer["node.barrier_s"] - res.layer["node.flush_s"], "s"},
			{"= timed-phase wall", wall.Seconds(), "s"},
			{"  encode busy (all workers, all stages)", res.layer["core.encode_busy_s"], "s"},
		}
	}
	return res
}

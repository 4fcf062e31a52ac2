package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"dbdedup/internal/node"
	"dbdedup/internal/workload"
)

// record is one generated insert with the hash its reads are checked
// against.
type record struct {
	db, key string
	payload []byte
	hash    uint64
}

// repSeed derives repetition rep's input seed from the run seed. Every
// repetition generates new inputs, so a run's medians cover many corpora
// instead of one corpus's shape.
func repSeed(seed int64, rep int) int64 { return seed*65_537 + int64(rep) }

// tenantSeed derives tenant i's trace seed from a repetition's seed.
func tenantSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 }

// wikiCorpus generates tenants Wikipedia databases of about total/tenants
// raw bytes each with internal/workload's generator, inserts only.
func wikiCorpus(seed int64, tenants int, total int64) [][]record {
	out := make([][]record, tenants)
	for i := range out {
		db := fmt.Sprintf("wiki%02d", i)
		tr := workload.New(workload.Config{Kind: workload.Wikipedia, Seed: tenantSeed(seed, i), InsertBytes: total / int64(tenants)})
		for _, op := range tr.Records() {
			out[i] = append(out[i], record{db: db, key: op.Key, payload: op.Payload, hash: payloadHash(op.Payload)})
		}
	}
	return out
}

func rawBytes(corpus [][]record) (n int64) {
	for _, recs := range corpus {
		for _, r := range recs {
			n += int64(len(r.payload))
		}
	}
	return n
}

// interleave returns the records of the given tenants round-robin: one
// client's insert order, which keeps every database's own order.
func interleave(corpus [][]record, tenants []int) []record {
	var out []record
	for j := 0; ; j++ {
		added := false
		for _, t := range tenants {
			if j < len(corpus[t]) {
				out = append(out, corpus[t][j])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// clientTenants splits tenants between clients: tenant i goes to client
// i % clients, so each database is written by one client, in order.
func clientTenants(tenants, clients, c int) []int {
	var out []int
	for i := c; i < tenants; i += clients {
		out = append(out, i)
	}
	return out
}

// openNode opens a node on a fresh directory under workDir.
func openNode(workDir, prefix string, opts node.Options) (*node.Node, string, error) {
	dir, err := os.MkdirTemp(workDir, prefix)
	if err != nil {
		return nil, "", err
	}
	opts.Dir = dir
	n, err := node.Open(opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return n, dir, nil
}

// readBack reads every record with two concurrent readers through Node.Read
// and checks each against its generation hash. It returns the read
// latencies.
func readBack(n *node.Node, recs []record, res *repResult) []time.Duration {
	const readers = 2
	lats := make([][]time.Duration, readers)
	errs := make([][]string, readers)
	var wg sync.WaitGroup
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(recs); i += readers {
				r := recs[i]
				t0 := time.Now()
				got, err := n.Read(r.db, r.key)
				lats[c] = append(lats[c], time.Since(t0))
				if err != nil {
					errs[c] = append(errs[c], fmt.Sprintf("read-back %s/%s: %v", r.db, r.key, err))
				} else if payloadHash(got) != r.hash {
					errs[c] = append(errs[c], fmt.Sprintf("read-back %s/%s: payload mismatch", r.db, r.key))
				}
			}
		}(c)
	}
	wg.Wait()
	var all []time.Duration
	for c := range lats {
		all = append(all, lats[c]...)
		for _, e := range errs[c] {
			res.fail("%s", e)
		}
	}
	res.attempted += int64(len(recs))
	return all
}

// verifyChains runs VerifyAll on n and counts a report with broken chains
// as one failed check.
func verifyChains(n *node.Node, role string, res *repResult) {
	res.attempted++
	rep := n.VerifyAll()
	if !rep.Ok() {
		res.fail("VerifyAll on %s: %s: %s", role, rep, strings.Join(rep.Errors[:min(len(rep.Errors), 3)], "; "))
	}
}

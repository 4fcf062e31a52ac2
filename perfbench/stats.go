package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	dbmetrics "dbdedup/internal/metrics"
	"dbdedup/internal/node"
)

// percentiles returns the nearest-rank q-quantiles of samples (0 when
// there are none).
func percentiles(samples []time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(samples) == 0 {
		return out
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, q := range qs {
		k := int(math.Ceil(q*float64(len(s)))) - 1
		if k < 0 {
			k = 0
		}
		out[i] = s[k]
	}
	return out
}

func meanDur(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return sum / time.Duration(len(samples))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func payloadHash(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// heapSampler tracks how far live heap objects grow over a timed phase
// above where they stood, after a collection, when the phase began. The
// baseline holds the benchmark's own inputs and the node as set up, so the
// figure is the program's growth under the workload (its caches, buffers and
// the garbage it makes before the next collection). It reads
// runtime/metrics, which does not stop the world.
type heapSampler struct {
	base uint64
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapSampler collects garbage, takes the baseline and starts
// sampling; call it before the timed phase starts.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{})}
	h.base = heapObjects()
	h.peak.Store(h.base)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h *heapSampler) sample() {
	v := heapObjects()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stopMiB stops the sampler and returns the peak growth over the baseline
// in MiB.
func (h *heapSampler) stopMiB() float64 {
	h.sample()
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak.Load()-h.base) / (1 << 20)
}

// stageTotal is one encode stage's histogram as count and summed time.
type stageTotal struct {
	count uint64
	sum   float64 // ns
}

// snap is every public counter a node exports, read at one instant. Two
// snaps bracket a timed phase; layer metrics are their differences.
type snap struct {
	st       node.Stats
	stages   [dbmetrics.NumEncodeStages]stageTotal
	enc      dbmetrics.EncodeSnapshot
	read     dbmetrics.ReadSnapshot
	featidx  dbmetrics.FeatIdxSnapshot
	compact  dbmetrics.CompactionSnapshot
	insCount uint64
	insSum   float64 // ns, node-side insert latency
	mem      runtime.MemStats
}

func takeSnap(n *node.Node) snap {
	var s snap
	s.st = n.Stats()
	em := n.EncodeMetrics()
	for i := range s.stages {
		h := em.Stage(dbmetrics.EncodeStage(i))
		c := h.Count()
		s.stages[i] = stageTotal{count: c, sum: float64(h.Mean()) * float64(c)}
	}
	s.enc = em.Snapshot()
	s.read = n.ReadSnapshot()
	s.featidx = n.FeatIdxSnapshot()
	s.compact = n.CompactionSnapshot()
	s.insCount = n.InsertLatency().Count()
	s.insSum = float64(n.InsertLatency().Mean()) * float64(s.insCount)
	runtime.ReadMemStats(&s.mem)
	return s
}

// stageMeanUS is a stage's mean latency over the interval, in µs.
func stageMeanUS(a, b snap, st dbmetrics.EncodeStage) float64 {
	c := float64(b.stages[st].count - a.stages[st].count)
	return ratio(b.stages[st].sum-a.stages[st].sum, c) / 1e3
}

// nodeLayers fills the per-layer metrics that come from counter snapshots
// of one node bracketing a timed phase in which ops client operations ran.
func nodeLayers(m map[string]float64, a, b snap, ops int64) {
	inserts := float64(b.st.Inserts - a.st.Inserts)
	reads := float64(b.st.Reads - a.st.Reads)
	raw := float64(b.st.RawInsertBytes - a.st.RawInsertBytes)

	m["node.encode_overflow_share"] = ratio(float64(b.st.EncodeOverflows-a.st.EncodeOverflows), inserts)
	// Write-back application and source fetches walk chains too, so steps
	// happen without reads; per read is 0 when there were no reads.
	steps := float64(b.st.DecodeSteps - a.st.DecodeSteps)
	m["node.decode_steps"] = steps
	m["node.decode_steps_per_read"] = ratio(steps, reads)

	m["core.chunk_us_mean"] = stageMeanUS(a, b, dbmetrics.StageChunk)
	sketchSum := b.stages[dbmetrics.StageSketch].sum - a.stages[dbmetrics.StageSketch].sum
	chunkSum := b.stages[dbmetrics.StageChunk].sum - a.stages[dbmetrics.StageChunk].sum
	m["core.sketch_self_us_mean"] = ratio(sketchSum-chunkSum,
		float64(b.stages[dbmetrics.StageSketch].count-a.stages[dbmetrics.StageSketch].count)) / 1e3
	m["core.index_us_mean"] = stageMeanUS(a, b, dbmetrics.StageIndex)
	m["core.source_us_mean"] = stageMeanUS(a, b, dbmetrics.StageSource)
	m["core.delta_us_mean"] = stageMeanUS(a, b, dbmetrics.StageDelta)
	m["core.chain_us_mean"] = stageMeanUS(a, b, dbmetrics.StageChain)
	var busy float64 // chunk is a sub-interval of sketch, so it is not added
	for _, st := range []dbmetrics.EncodeStage{dbmetrics.StageSketch, dbmetrics.StageIndex,
		dbmetrics.StageSource, dbmetrics.StageDelta, dbmetrics.StageChain} {
		busy += b.stages[st].sum - a.stages[st].sum
	}
	m["core.encode_busy_s"] = busy / 1e9
	m["core.dedup_hit_share"] = ratio(float64(b.st.Engine.Deduped-a.st.Engine.Deduped),
		float64(b.st.Engine.Inserts-a.st.Engine.Inserts))

	chunked := float64(b.enc.ChunkedBytes - a.enc.ChunkedBytes)
	m["chunker.ns_per_byte"] = ratio(chunkSum, chunked)
	m["chunker.avg_chunk_bytes"] = ratio(chunked, float64(b.enc.Chunks-a.enc.Chunks))

	m["featidx.matches_per_lookup"] = ratio(float64(b.featidx.Matches-a.featidx.Matches),
		float64(b.featidx.Lookups-a.featidx.Lookups))
	m["featidx.evictions"] = float64(b.featidx.Evictions - a.featidx.Evictions)
	m["featidx.memory_bytes"] = float64(b.featidx.MemoryBytes)

	hits := float64(b.st.Engine.SourceCacheHits - a.st.Engine.SourceCacheHits)
	m["dedupcache.source_hit_share"] = ratio(hits, hits+float64(b.st.Engine.SourceCacheMiss-a.st.Engine.SourceCacheMiss))
	applied := float64(b.st.WritebacksApplied - a.st.WritebacksApplied)
	skipped := float64(b.st.WritebacksSkipped - a.st.WritebacksSkipped)
	m["dedupcache.writeback_skip_share"] = ratio(skipped, applied+skipped)
	m["dedupcache.writebacks_per_insert"] = ratio(applied, inserts)

	cHits := float64(b.read.CacheHits - a.read.CacheHits)
	lookups := cHits + float64(b.read.CacheMisses-a.read.CacheMisses)
	m["docstore.block_lookups_per_read"] = ratio(lookups, reads)
	m["docstore.block_cache_hit_share"] = ratio(cHits, lookups)
	m["docstore.mmap_reads"] = float64(b.compact.MmapBlockReads - a.compact.MmapBlockReads)
	m["docstore.pread_reads"] = float64(b.compact.PreadBlockReads - a.compact.PreadBlockReads)
	m["docstore.block_bytes_per_raw_byte"] = ratio(float64(b.st.Store.BlockBytesOut-a.st.Store.BlockBytesOut), raw)
	m["docstore.compaction_bytes"] = float64(b.st.CompactionBytes - a.st.CompactionBytes)

	m["runtime.alloc_bytes_per_op"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), float64(ops))
	m["runtime.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
}

// nodeInsertMeanUS is the node-side mean insert latency over the interval.
func nodeInsertMeanUS(a, b snap) float64 {
	return ratio(b.insSum-a.insSum, float64(b.insCount-a.insCount)) / 1e3
}

// storageRatios sets storage_ratio (raw / stored logical bytes) and
// network_ratio (raw / oplog bytes) for a node's whole life so far.
func storageRatios(m map[string]frac, st node.Stats) {
	m["storage_ratio"] = frac{float64(st.RawInsertBytes), float64(st.Store.LogicalBytes)}
	m["network_ratio"] = frac{float64(st.RawInsertBytes), float64(st.OplogBytes)}
}

// Package metrics provides the measurement plumbing the experiments use:
// latency histograms with CDF and percentile extraction (Fig. 12b),
// throughput-over-time series (Figs. 12a, 13b), and simple byte meters for
// storage/network accounting (Figs. 10, 11).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram records durations in exponentially spaced buckets, cheap enough
// for per-operation use, precise enough for 99.9th-percentile reads.
//
// Buckets span 1µs to ~17.9min with 16 sub-buckets per power of two.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

const (
	histSubBits = 4 // 16 sub-buckets per octave
	histBuckets = 30 << histSubBits
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets), min: math.MaxInt64}
}

// bucketOf maps a duration to its bucket: microsecond values below 16 get
// exact buckets 0..15; above that, each power of two is split into 16
// sub-buckets, giving <= 1/16 relative width everywhere.
func bucketOf(d time.Duration) int {
	us := uint64(d.Microseconds())
	if d < 0 {
		us = 0
	}
	if us < 1<<histSubBits {
		return int(us)
	}
	exp := 63 - bits.LeadingZeros64(us) // >= histSubBits
	sub := (us >> (uint(exp) - histSubBits)) & ((1 << histSubBits) - 1)
	b := (exp-histSubBits+1)<<histSubBits | int(sub)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketUpper returns the largest duration the bucket can hold.
func bucketUpper(b int) time.Duration {
	if b < 1<<histSubBits {
		return time.Duration(b) * time.Microsecond
	}
	exp := b>>histSubBits + histSubBits - 1
	sub := b & ((1 << histSubBits) - 1)
	us := (uint64(1<<histSubBits+sub+1) << (uint(exp) - histSubBits)) - 1
	return time.Duration(us) * time.Microsecond
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the average observed duration.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Max returns the largest observed duration (0 when empty).
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1), e.g.
// Quantile(0.999) is the 99.9th-percentile latency.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(h.total)))
	if want < 1 {
		want = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= want {
			u := bucketUpper(b)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    time.Duration
	Fraction float64 // fraction of observations <= Value
}

// CDF returns the latency CDF at each non-empty bucket boundary.
func (h *Histogram) CDF() []CDFPoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return nil
	}
	var pts []CDFPoint
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		pts = append(pts, CDFPoint{Value: bucketUpper(b), Fraction: float64(seen) / float64(h.total)})
	}
	return pts
}

// Meter is a monotonically increasing byte/op counter, safe for concurrent
// use without locking.
type Meter struct {
	n atomic.Int64
}

// Add increments the meter.
func (m *Meter) Add(n int64) { m.n.Add(n) }

// Total returns the current value.
func (m *Meter) Total() int64 { return m.n.Load() }

// Gauge is an instantaneous level (queue depths, backlog sizes), safe for
// concurrent use without locking.
type Gauge struct {
	n atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.n.Store(n) }

// Add moves the gauge by n and returns the new value.
func (g *Gauge) Add(n int64) int64 { return g.n.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.n.Load() }

// EncodeStage identifies one stage of the dedup encode pipeline
// (paper §3.1's four-step workflow, with source fetch split out of
// selection because it is the only stage that may touch the database).
type EncodeStage int

const (
	// StageChunk is content-defined chunking alone (Rabin or Gear,
	// whichever the chunker seam selected) — the inner loop of feature
	// extraction, timed separately so chunker regressions are visible
	// without a benchmark run. It is a sub-interval of StageSketch.
	// Lock-free.
	StageChunk EncodeStage = iota
	// StageSketch is feature extraction end to end: content-defined
	// chunking + batched Murmur hashing + consistent sampling. Lock-free.
	StageSketch
	// StageIndex is the cuckoo feature-index lookup/insert. Runs under the
	// owning database's lock.
	StageIndex
	// StageSource is source-content acquisition: cache hit or database
	// fetch. Lock-free (the caches have their own internal locks).
	StageSource
	// StageDelta is two-way delta compression (forward compress + backward
	// re-encode). Lock-free.
	StageDelta
	// StageChain is chain bookkeeping plus hop write-back emission. The
	// bookkeeping runs under the database lock; hop delta computation is
	// lock-free.
	StageChain
	// NumEncodeStages is the number of pipeline stages.
	NumEncodeStages
)

// String names the stage for display and JSON.
func (s EncodeStage) String() string {
	switch s {
	case StageChunk:
		return "chunk"
	case StageSketch:
		return "sketch"
	case StageIndex:
		return "index"
	case StageSource:
		return "source"
	case StageDelta:
		return "delta"
	case StageChain:
		return "chain"
	default:
		return fmt.Sprintf("stage%d", int(s))
	}
}

// EncodeMetrics bundles the encode-path instrumentation: per-stage latency
// histograms, throughput meters, and encode-queue gauges. All fields are
// individually safe for concurrent use.
type EncodeMetrics struct {
	stages [NumEncodeStages]*Histogram

	// Encoded counts records that ran the full dedup workflow (not
	// filtered, not governor-skipped); EncodedBytes sums their payloads.
	Encoded      Meter
	EncodedBytes Meter

	// Chunks counts content-defined chunks produced by sketch extraction;
	// ChunkedBytes sums the bytes scanned to produce them. Their ratio is
	// the observed average chunk size of the live workload.
	Chunks       Meter
	ChunkedBytes Meter

	// QueueDepth is the number of encode jobs queued or in flight across
	// all encoder shards. QueueOverflows counts enqueues that found their
	// shard full and had to apply caller backpressure.
	QueueDepth     Gauge
	QueueOverflows Meter
}

// NewEncodeMetrics returns a zeroed metrics bundle.
func NewEncodeMetrics() *EncodeMetrics {
	m := &EncodeMetrics{}
	for i := range m.stages {
		m.stages[i] = NewHistogram()
	}
	return m
}

// Stage returns the latency histogram for one pipeline stage.
func (m *EncodeMetrics) Stage(s EncodeStage) *Histogram { return m.stages[s] }

// ObserveStage records one stage latency sample.
func (m *EncodeMetrics) ObserveStage(s EncodeStage, d time.Duration) {
	m.stages[s].Observe(d)
}

// EncodeStageSnapshot is the JSON-friendly summary of one stage histogram.
type EncodeStageSnapshot struct {
	Stage  string
	Count  uint64
	MeanUS int64 // microseconds
	P50US  int64
	P99US  int64
}

// EncodeSnapshot is a point-in-time view of an EncodeMetrics bundle, shaped
// for the admin endpoint.
type EncodeSnapshot struct {
	Stages         []EncodeStageSnapshot
	EncodedRecords int64
	EncodedBytes   int64
	Chunks         int64
	ChunkedBytes   int64
	QueueDepth     int64
	QueueOverflows int64
}

// Snapshot summarises the bundle.
func (m *EncodeMetrics) Snapshot() EncodeSnapshot {
	snap := EncodeSnapshot{
		EncodedRecords: m.Encoded.Total(),
		EncodedBytes:   m.EncodedBytes.Total(),
		Chunks:         m.Chunks.Total(),
		ChunkedBytes:   m.ChunkedBytes.Total(),
		QueueDepth:     m.QueueDepth.Value(),
		QueueOverflows: m.QueueOverflows.Total(),
	}
	for s := EncodeStage(0); s < NumEncodeStages; s++ {
		h := m.stages[s]
		snap.Stages = append(snap.Stages, EncodeStageSnapshot{
			Stage:  s.String(),
			Count:  h.Count(),
			MeanUS: h.Mean().Microseconds(),
			P50US:  h.Quantile(0.50).Microseconds(),
			P99US:  h.Quantile(0.99).Microseconds(),
		})
	}
	return snap
}

// ApplyMetrics bundles the replication apply-path instrumentation: the
// secondary's sharded apply pipeline reports its queue pressure, per-entry
// apply latency, and how often a forward-encoded insert needed the full
// record fetched from the primary. All fields are individually safe for
// concurrent use.
type ApplyMetrics struct {
	latency *Histogram

	// Workers is the size of the apply worker pool.
	Workers Gauge
	// QueueDepth is the number of apply jobs queued or in flight across
	// all apply shards. QueueOverflows counts dispatches that found their
	// shard full and had to wait for it to drain.
	QueueDepth     Gauge
	QueueOverflows Meter
	// Applied counts oplog entries and snapshot records applied
	// successfully; ApplyFailures counts entries whose apply (including
	// any fetch fallback) returned an error.
	Applied       Meter
	ApplyFailures Meter
	// BaseFetches counts forward-encoded inserts that fell back to
	// fetching the full record from the primary (paper §4.1 fn. 4).
	BaseFetches Meter
}

// NewApplyMetrics returns a zeroed metrics bundle.
func NewApplyMetrics() *ApplyMetrics {
	return &ApplyMetrics{latency: NewHistogram()}
}

// Latency returns the per-entry apply latency histogram.
func (m *ApplyMetrics) Latency() *Histogram { return m.latency }

// ApplySnapshot is a point-in-time view of an ApplyMetrics bundle, shaped
// for the admin endpoint.
type ApplySnapshot struct {
	Workers        int64
	Applied        int64
	ApplyFailures  int64
	QueueDepth     int64
	QueueOverflows int64
	BaseFetches    int64
	LatencyCount   uint64
	LatencyMeanUS  int64
	LatencyP50US   int64
	LatencyP99US   int64
}

// Snapshot summarises the bundle.
func (m *ApplyMetrics) Snapshot() ApplySnapshot {
	return ApplySnapshot{
		Workers:        m.Workers.Value(),
		Applied:        m.Applied.Total(),
		ApplyFailures:  m.ApplyFailures.Total(),
		QueueDepth:     m.QueueDepth.Value(),
		QueueOverflows: m.QueueOverflows.Total(),
		BaseFetches:    m.BaseFetches.Total(),
		LatencyCount:   m.latency.Count(),
		LatencyMeanUS:  m.latency.Mean().Microseconds(),
		LatencyP50US:   m.latency.Quantile(0.50).Microseconds(),
		LatencyP99US:   m.latency.Quantile(0.99).Microseconds(),
	}
}

// HistogramSummary is the compact latency view the admin endpoint embeds
// where a full CDF would be noise.
type HistogramSummary struct {
	Count  uint64
	MeanUS int64 // microseconds
	P50US  int64
	P99US  int64
}

// SummarizeHistogram condenses h into count/mean/p50/p99.
func SummarizeHistogram(h *Histogram) HistogramSummary {
	return HistogramSummary{
		Count:  h.Count(),
		MeanUS: h.Mean().Microseconds(),
		P50US:  h.Quantile(0.50).Microseconds(),
		P99US:  h.Quantile(0.99).Microseconds(),
	}
}

// LatencySummary is the full percentile view the load tools (dedupload,
// dedupstorm) report per operation kind — a superset of HistogramSummary
// with the tail percentiles an open-loop harness exists to measure.
type LatencySummary struct {
	Count  uint64
	MeanUS int64 // microseconds
	P50US  int64
	P90US  int64
	P99US  int64
	P999US int64
	MaxUS  int64
}

// Summary condenses the histogram into the load-tool percentile view.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanUS: h.Mean().Microseconds(),
		P50US:  h.Quantile(0.50).Microseconds(),
		P90US:  h.Quantile(0.90).Microseconds(),
		P99US:  h.Quantile(0.99).Microseconds(),
		P999US: h.Quantile(0.999).Microseconds(),
		MaxUS:  h.Max().Microseconds(),
	}
}

// String renders the summary the way the load tools print it.
func (s LatencySummary) String() string {
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	return fmt.Sprintf("mean %v  p50 %v  p99 %v  p99.9 %v  max %v (n=%d)",
		us(s.MeanUS), us(s.P50US), us(s.P99US), us(s.P999US), us(s.MaxUS), s.Count)
}

// CacheShardSnapshot is one block-cache shard's counters — the per-shard
// split shows whether the shard hash is spreading read contention.
type CacheShardSnapshot struct {
	Shard  int
	Hits   uint64
	Misses uint64
	Blocks int
}

// ReadSnapshot is a point-in-time view of the read path for the admin
// endpoint: client read latency, block-cache outcomes (total and per
// shard), and the segio segment-lifetime gauges.
type ReadSnapshot struct {
	Latency     HistogramSummary
	CacheHits   uint64
	CacheMisses uint64
	CacheShards []CacheShardSnapshot
	// PinnedReaders is the number of segment handles currently pinned by
	// in-flight reads; RetiredPending counts compacted segments whose
	// files stay open awaiting their last unpin.
	PinnedReaders  int64
	RetiredPending int64
	LiveSegments   int
}

// ReplMetrics bundles the replication transport's hardening counters: how
// often the stream reconnected and why, what the checksum layer rejected,
// and the heartbeat/idle-timeout machinery's activity. All fields are
// individually safe for concurrent use.
type ReplMetrics struct {
	// Reconnects counts stream reconnection attempts that succeeded;
	// Dials/DialFailures count every attempt. BackoffNanos accumulates
	// time spent sleeping between attempts.
	Reconnects   Meter
	Dials        Meter
	DialFailures Meter
	BackoffNanos Meter
	// CorruptFrames counts frames rejected by the per-frame checksum;
	// FrameSeqViolations counts frames whose sequence number proved
	// duplication, reordering, or loss on the wire.
	CorruptFrames      Meter
	FrameSeqViolations Meter
	// IdleTimeouts counts silent partitions detected by the read deadline
	// (no frame, not even a heartbeat, within the idle window).
	IdleTimeouts Meter
	// HeartbeatsSent counts primary→secondary heartbeat frames (sent when
	// a secondary is fully caught up).
	HeartbeatsSent Meter
	// ForcedResyncs counts reconnects that requested a fresh snapshot
	// because the previous connection died mid-snapshot.
	ForcedResyncs Meter
}

// ReplSnapshot is a point-in-time view of a ReplMetrics bundle, shaped for
// the admin endpoint.
type ReplSnapshot struct {
	Reconnects         int64
	Dials              int64
	DialFailures       int64
	BackoffNanos       int64
	CorruptFrames      int64
	FrameSeqViolations int64
	IdleTimeouts       int64
	HeartbeatsSent     int64
	ForcedResyncs      int64
}

// Snapshot summarises the bundle.
func (m *ReplMetrics) Snapshot() ReplSnapshot {
	return ReplSnapshot{
		Reconnects:         m.Reconnects.Total(),
		Dials:              m.Dials.Total(),
		DialFailures:       m.DialFailures.Total(),
		BackoffNanos:       m.BackoffNanos.Total(),
		CorruptFrames:      m.CorruptFrames.Total(),
		FrameSeqViolations: m.FrameSeqViolations.Total(),
		IdleTimeouts:       m.IdleTimeouts.Total(),
		HeartbeatsSent:     m.HeartbeatsSent.Total(),
		ForcedResyncs:      m.ForcedResyncs.Total(),
	}
}

// Series records a value per fixed time slot, for throughput-over-time
// plots. Slot 0 starts at the Series' creation.
type Series struct {
	mu    sync.Mutex
	start time.Time
	slot  time.Duration
	vals  []int64
}

// NewSeries returns a Series with the given slot width.
func NewSeries(slot time.Duration) *Series {
	return &Series{start: time.Now(), slot: slot}
}

// Add adds n to the current slot.
func (s *Series) Add(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := int(time.Since(s.start) / s.slot)
	for len(s.vals) <= idx {
		s.vals = append(s.vals, 0)
	}
	s.vals[idx] += n
}

// Values returns a copy of the per-slot totals.
func (s *Series) Values() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.vals))
	copy(out, s.vals)
	return out
}

// SlotWidth returns the slot duration.
func (s *Series) SlotWidth() time.Duration {
	return s.slot
}

// Ratio formats a compression ratio (orig/compressed) defensively.
func Ratio(orig, compressed int64) float64 {
	if compressed <= 0 {
		return 0
	}
	return float64(orig) / float64(compressed)
}

// FormatBytes renders a byte count in human units.
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// Percentiles is a convenience for sorted percentile extraction from raw
// samples (used by tests to cross-check the histogram).
func Percentiles(samples []time.Duration, qs ...float64) []time.Duration {
	if len(samples) == 0 {
		return make([]time.Duration, len(qs))
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		out[i] = sorted[idx]
	}
	return out
}

// CompactionMetrics bundles the compaction re-dedup pass counters: how much
// work each pass did (records re-sketched against the feature index, raw →
// delta conversions won) and what it bought (logical bytes saved by the
// conversions, physical bytes reclaimed by retiring victim segments).
type CompactionMetrics struct {
	// Passes counts completed compaction passes; PassLatency is their
	// wall-clock distribution.
	Passes Meter
	// Resketched counts live raw records whose features were recomputed
	// and probed against the similarity index during compaction.
	Resketched Meter
	// Conversions counts raw records rewritten as deltas; Skipped counts
	// conversions abandoned at commit time (superseded record, failed
	// grounding check, or an append error).
	Conversions        Meter
	ConversionsSkipped Meter
	// LogicalBytesSaved is Σ(raw payload − encoded delta) over committed
	// conversions; PhysicalBytesReclaimed is segment bytes freed on disk.
	LogicalBytesSaved      Meter
	PhysicalBytesReclaimed Meter

	latency *Histogram
}

// NewCompactionMetrics returns a zeroed bundle.
func NewCompactionMetrics() *CompactionMetrics {
	return &CompactionMetrics{latency: NewHistogram()}
}

// ObservePass records one completed pass and its duration.
func (m *CompactionMetrics) ObservePass(d time.Duration) {
	m.Passes.Add(1)
	m.latency.Observe(d)
}

// CompactionSnapshot is a point-in-time view of a CompactionMetrics bundle
// plus the store's mmap/pread read-path split, shaped for the admin endpoint.
type CompactionSnapshot struct {
	Passes                 int64
	Resketched             int64
	Conversions            int64
	ConversionsSkipped     int64
	LogicalBytesSaved      int64
	PhysicalBytesReclaimed int64
	PassLatency            HistogramSummary
	// MmapBlockReads/PreadBlockReads split sealed-segment block reads by
	// path; MmapFailures counts mappings that failed and fell back.
	MmapBlockReads  uint64
	PreadBlockReads uint64
	MmapFailures    uint64
}

// Snapshot summarises the bundle. The mmap counters are store-owned; the
// caller fills them in.
func (m *CompactionMetrics) Snapshot() CompactionSnapshot {
	return CompactionSnapshot{
		Passes:                 m.Passes.Total(),
		Resketched:             m.Resketched.Total(),
		Conversions:            m.Conversions.Total(),
		ConversionsSkipped:     m.ConversionsSkipped.Total(),
		LogicalBytesSaved:      m.LogicalBytesSaved.Total(),
		PhysicalBytesReclaimed: m.PhysicalBytesReclaimed.Total(),
		PassLatency:            SummarizeHistogram(m.latency),
	}
}

// FeatIdxSnapshot is a point-in-time view of the similarity index: occupancy
// against its configured bound, plus lifetime lookup/match/eviction counts.
// The Tiered* fields describe the memory-bounded tiered index (hot cuckoo
// partition + Bloom-gated disk-resident cold runs) and are zero — with
// TieredEnabled false — when the classic unbounded cuckoo index runs.
type FeatIdxSnapshot struct {
	Entries       int
	MemoryBytes   int64
	CapacityBytes int64
	Lookups       uint64
	Matches       uint64
	Evictions     uint64

	TieredEnabled bool
	// TieredBudgetBytes is the configured in-memory bound (summed across
	// partitions); MemoryBytes above is the actual use.
	TieredBudgetBytes int64
	// Hot/pending occupancy and the cold-tier geometry.
	TieredHotEntries     int
	TieredPendingEntries int
	TieredColdRuns       int
	TieredResidentRuns   int
	TieredColdEntries    int64
	TieredColdDiskBytes  int64
	// Bloom-filter effectiveness: checks gate disk probes; a false
	// positive is a passed check whose run search found nothing.
	TieredBloomMemoryBytes    int64
	TieredBloomChecks         uint64
	TieredBloomHits           uint64
	TieredBloomFalsePositives uint64
	TieredDiskProbes          uint64
	TieredDiskProbeHits       uint64
	TieredDiskReadErrors      uint64
	// Maintenance lifecycle counters.
	TieredFreezes        uint64
	TieredFreezeFailures uint64
	TieredMerges         uint64
	TieredMergeFailures  uint64
	TieredDroppedRuns    uint64
}

// ClusterMetrics instruments a cluster shard's routing tier: ownership
// decisions, redirects and forwards, and the handoff/rebalance lifecycle.
// Zero-valued on a node that is not clustered.
type ClusterMetrics struct {
	// RingEpoch is the highest ring epoch installed (monotonic per member).
	RingEpoch Gauge
	// RingInstalls counts accepted ring installs (rebalance windows opened).
	RingInstalls Meter
	// RedirectsIssued counts wrong-shard answers sent to clients;
	// MovingAnswered counts retry-later answers during a handoff window.
	RedirectsIssued Meter
	MovingAnswered  Meter
	// ForwardedOps/ForwardFailures count server-side proxying of wrong-shard
	// requests to their owner (when forwarding is enabled).
	ForwardedOps    Meter
	ForwardFailures Meter
	// Handoff lifecycle: started on BeginHandoff, then exactly one of
	// committed (cutover) or aborted (revert) per window.
	HandoffsStarted   Meter
	HandoffsCommitted Meter
	HandoffsAborted   Meter
	// Transfer volume: Out on the draining source, In on the gaining
	// destination. Failures count transfer round trips that errored.
	TransferRecordsOut Meter
	TransferBytesOut   Meter
	TransferRecordsIn  Meter
	TransferBytesIn    Meter
	TransferFailures   Meter
	// DroppedDBs/DroppedRecords count local copies deleted at cutover
	// (source) or on abort (destination).
	DroppedDBs     Meter
	DroppedRecords Meter
}

// ClusterSnapshot is the JSON view of ClusterMetrics for /metrics.
type ClusterSnapshot struct {
	Enabled         bool
	RingEpoch       int64
	RingInstalls    int64
	RedirectsIssued int64
	MovingAnswered  int64
	ForwardedOps    int64
	ForwardFailures int64

	HandoffsStarted   int64
	HandoffsCommitted int64
	HandoffsAborted   int64

	TransferRecordsOut int64
	TransferBytesOut   int64
	TransferRecordsIn  int64
	TransferBytesIn    int64
	TransferFailures   int64

	DroppedDBs     int64
	DroppedRecords int64
}

// Snapshot captures the counters. Safe on a nil receiver (unclustered node).
func (m *ClusterMetrics) Snapshot() ClusterSnapshot {
	if m == nil {
		return ClusterSnapshot{}
	}
	return ClusterSnapshot{
		Enabled:            true,
		RingEpoch:          m.RingEpoch.Value(),
		RingInstalls:       m.RingInstalls.Total(),
		RedirectsIssued:    m.RedirectsIssued.Total(),
		MovingAnswered:     m.MovingAnswered.Total(),
		ForwardedOps:       m.ForwardedOps.Total(),
		ForwardFailures:    m.ForwardFailures.Total(),
		HandoffsStarted:    m.HandoffsStarted.Total(),
		HandoffsCommitted:  m.HandoffsCommitted.Total(),
		HandoffsAborted:    m.HandoffsAborted.Total(),
		TransferRecordsOut: m.TransferRecordsOut.Total(),
		TransferBytesOut:   m.TransferBytesOut.Total(),
		TransferRecordsIn:  m.TransferRecordsIn.Total(),
		TransferBytesIn:    m.TransferBytesIn.Total(),
		TransferFailures:   m.TransferFailures.Total(),
		DroppedDBs:         m.DroppedDBs.Total(),
		DroppedRecords:     m.DroppedRecords.Total(),
	}
}

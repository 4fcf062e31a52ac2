// Command perfbench is dbDedup's stationary end-to-end benchmark.
//
// It drives the system only through the public functions of node, apiserver
// and repl, generates every input itself from -seed, checks every read
// against the payload recorded at generation, and prints one JSON object as
// its last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (see BENCHMARK.json);
// with -trace 1 the run is repeated with spans recorded around every call
// the benchmark makes into a layer, and the metrics are the per-layer ones,
// an attribution table is printed, and the spans are written to
// .bench_build/spans/. Human-readable lines (host facts, policies,
// per-repetition figures, the attribution table) go to standard output
// before the JSON line.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package from source:
//
//	bash perfbench/run.sh --workload ingest-wiki --seed 1 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen and which layers it
// bypasses):
//
//   - ingest-wiki: 8 Wikipedia tenant databases written by 2 closed-loop
//     clients through Node.Insert; the timed phase ends when Barrier and
//     FlushWritebacks(-1) return.
//   - read-history: a Wikipedia corpus loaded with SyncEncode and block
//     compression, then read by 2 closed-loop readers (latest revisions and
//     uniformly chosen older ones) through Node.Read.
//   - tenant-mix: 16 tenants of all four families over 2 tenant-affine
//     apiserver connections, closed loop, to a node with dbdedupd defaults
//     followed by an in-process secondary over repl. It is the only workload
//     that crosses apiserver and repl. Traced runs add an open-loop Poisson
//     phase for tail latency, generator lateness and replication lag.
//
// A run makes a fixed number of repetitions of set-up, timed phase,
// verification and teardown: enough, at the workload's nominal repetition
// length, to cover -seconds of timed phases. Each repetition generates new
// inputs from the seed and its index, so the same seed gives the same
// inputs and the same count metrics. Set-up and teardown are never inside a
// timed phase. Timings, throughputs and heap growth are the median of
// their per-repetition values, so a few repetitions slowed by the host do
// not move them. Storage and network ratios, which the host cannot move,
// pool the repetitions (total raw over total stored bytes), which averages
// over their corpora.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef declares one reported metric.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run reports, on every workload.
// The 99th percentiles are not among them: on a 2-vCPU VM with noisy
// neighbours they move 15-60% between runs, more than any bound a
// regression gate can use, so they are reported per layer, without one.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_mb_s", "MiB/s"},
	{"insert_p50_us", "us"},
	{"read_p50_us", "us"},
	{"goodput_ops_s", "1/s"},
	{"storage_ratio", "ratio"},
	{"network_ratio", "ratio"},
	{"heap_peak_mb", "MiB"},
}

// perLayer lists the metrics a -trace 1 run reports, on every workload. A
// layer a workload does not cross reports 0.
var perLayer = []metricDef{
	{"insert_p99_us", "us"},
	{"read_p99_us", "us"},
	{"gen.late_us_p50", "us"},
	{"gen.late_us_p99", "us"},
	{"apiserver.rtt_us_p50", "us"},
	{"apiserver.rtt_us_p99", "us"},
	{"apiserver.self_us_mean", "us"},
	{"node.insert_us_p50", "us"},
	{"node.insert_us_p99", "us"},
	{"node.encode_overflow_share", "share"},
	{"node.barrier_s", "s"},
	{"node.flush_s", "s"},
	{"node.read_us_p50", "us"},
	{"node.read_us_p99", "us"},
	{"node.decode_steps", "count"},
	{"node.decode_steps_per_read", "count"},
	{"core.chunk_us_mean", "us"},
	{"core.sketch_self_us_mean", "us"},
	{"core.index_us_mean", "us"},
	{"core.source_us_mean", "us"},
	{"core.delta_us_mean", "us"},
	{"core.chain_us_mean", "us"},
	{"core.encode_busy_s", "s"},
	{"core.dedup_hit_share", "share"},
	{"chunker.ns_per_byte", "ns/B"},
	{"chunker.avg_chunk_bytes", "B"},
	{"featidx.matches_per_lookup", "count"},
	{"featidx.evictions", "count"},
	{"featidx.memory_bytes", "B"},
	{"dedupcache.source_hit_share", "share"},
	{"dedupcache.writeback_skip_share", "share"},
	{"dedupcache.writebacks_per_insert", "count"},
	{"docstore.block_lookups_per_read", "count"},
	{"docstore.block_cache_hit_share", "share"},
	{"docstore.mmap_reads", "count"},
	{"docstore.pread_reads", "count"},
	{"docstore.block_bytes_per_raw_byte", "ratio"},
	{"docstore.compaction_bytes", "B"},
	{"repl.apply_us_p50", "us"},
	{"repl.apply_us_p99", "us"},
	{"repl.base_fetches", "count"},
	{"repl.reconnects", "count"},
	{"repl.bytes_sent_per_raw_byte", "ratio"},
	{"repl.lag_ms_p50", "ms"},
	{"repl.lag_ms_p99", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_share", "share"},
}

// config is what one run needs to know.
type config struct {
	seed    int64
	seconds float64
	workDir string // temp directories for stores live here
	scale   scale
	minReps int
}

// scale sizes the workloads; tests shrink it.
type scale struct {
	ingestBytes  int64         // ingest-wiki raw bytes per repetition
	historyBytes int64         // read-history corpus raw bytes per repetition
	historyReads int           // read-history reads per reader per repetition
	mixOps       int           // tenant-mix closed-loop operations per repetition
	mixRate      float64       // tenant-mix open-loop offered ops/s (traced runs)
	mixOpen      time.Duration // tenant-mix open-loop phase length (traced runs)
}

var fullScale = scale{ingestBytes: 8 << 20, historyBytes: 8 << 20, historyReads: 3000,
	mixOps: 15000, mixRate: 400, mixOpen: 2 * time.Second}

// workloadDef is one benchmark workload. setup is timed as setup_s; the
// returned repetition runs the timed phase, verifies, and tears down.
type workloadDef struct {
	name   string
	policy string // flush and compression policy, printed with every result
	// repSeconds is the nominal length of one repetition's timed phase at
	// full scale (2-vCPU x86-64 VM), which sets how many repetitions a run
	// makes.
	repSeconds float64
	// overhead names the figure tracing overhead is judged on
	// (repResult.overhead).
	overhead string
	setup    func(cfg config, rep int) (repetition, error)
}

// repetition is one set-up instance of a workload.
type repetition interface {
	// run executes the timed phase, a fixed amount of work generated in
	// setup, and the correctness checks that follow it. tr is nil when
	// tracing is off.
	run(tr *tracer) *repResult
	// close tears the instance down; never timed.
	close()
}

// repResult is what one repetition measured.
type repResult struct {
	timed time.Duration
	e2e   map[string]float64 // end-to-end figures the run reports the median of
	// frac holds the end-to-end ratios as numerator and denominator; the
	// run reports the quotient of the sums. Inputs differ between
	// repetitions, and a few large, often-revised articles move one
	// repetition's ratio by 10-20%: pooling averages over the corpora.
	frac  map[string]frac
	lat   map[string][]time.Duration
	layer map[string]float64 // traced repetitions only
	// tail holds the latencies the unbounded p99s come from when they are
	// not the timed phase's (tenant-mix's traced open-loop phase).
	tail      map[string][]time.Duration
	overhead  float64 // the figure tracing overhead is judged on
	attempted int64
	failed    int64
	problems  []string // correctness failures, for the log
	attrib    []attribRow
}

type frac struct{ num, den float64 }

func newRepResult() *repResult {
	return &repResult{e2e: map[string]float64{}, frac: map[string]frac{}, lat: map[string][]time.Duration{}, layer: map[string]float64{}}
}

// value is the repetition's own figure for an end-to-end metric.
func (r *repResult) value(k string) float64 {
	if f, ok := r.frac[k]; ok {
		return ratio(f.num, f.den)
	}
	return r.e2e[k]
}

// summary renders the repetition's own figures for the log.
func (r *repResult) summary() string {
	var b strings.Builder
	for _, kind := range []string{"insert", "read"} {
		if p := percentiles(r.lat[kind], 0.50, 0.99); len(r.lat[kind]) > 0 {
			fmt.Fprintf(&b, " %s_p50/p99 %.1f/%.1fus", kind, us(p[0]), us(p[1]))
		}
	}
	var keys []string
	for k := range r.e2e {
		keys = append(keys, k)
	}
	for k := range r.frac {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s %.4g", k, r.value(k))
	}
	return b.String()
}

func (r *repResult) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = []workloadDef{ingestWiki, readHistory, tenantMix}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	wname := flag.String("workload", "", "workload to run: ingest-wiki | read-history | tenant-mix")
	seed := flag.Int64("seed", 1, "seed all inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the timed phases of one run measure in total")
	trace := flag.Int("trace", 0, "1: record spans and report per-layer metrics")
	root := flag.String("root", ".", "repository root; build output, stores and spans go under <root>/.bench_build")
	flag.Parse()

	w, ok := findWorkload(*wname)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *wname)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	// Environment overrides of engine defaults would make runs differ
	// from the workload definitions.
	os.Unsetenv("DBDEDUP_CHUNKER")
	os.Unsetenv("DBDEDUP_INDEX_BUDGET")

	build := filepath.Join(*root, ".bench_build")
	workDir, err := os.MkdirTemp(mkdirAll(filepath.Join(build, "work")), w.name+"-")
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, workDir: workDir, scale: fullScale, minReps: 3}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitCommit(*root))
	fmt.Printf("policy: %s\n", w.policy)

	var res jsonResult
	if *trace == 0 {
		res, err = runUntraced(w, cfg)
	} else {
		res, err = runTraced(w, cfg, filepath.Join(build, "spans"))
	}
	os.RemoveAll(workDir)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last line of a run's output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// repetitions is how many repetitions a run makes: enough, at the
// workload's nominal repetition length, to cover cfg.seconds, and at least
// cfg.minReps. It depends on nothing measured, so a seed's inputs repeat.
func repetitions(w workloadDef, cfg config) int {
	return max(cfg.minReps, int(math.Ceil(cfg.seconds/w.repSeconds-0.01)))
}

// runReps runs the repetitions of a run. setup_s samples go into setups.
func runReps(w workloadDef, cfg config, tr func(rep int) *tracer) (results []*repResult, setups []float64, err error) {
	for rep := 0; rep < repetitions(w, cfg); rep++ {
		res, setup, err := runRep(w, cfg, rep, tr(rep))
		if err != nil {
			return nil, nil, err
		}
		results, setups = append(results, res), append(setups, setup)
	}
	return results, setups, nil
}

// runRep sets up, runs and tears down repetition rep, and returns what it
// measured and its set-up seconds.
func runRep(w workloadDef, cfg config, rep int, tr *tracer) (*repResult, float64, error) {
	t0 := time.Now()
	r, err := w.setup(cfg, rep)
	if err != nil {
		return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
	}
	setup := time.Since(t0).Seconds()
	t1 := time.Now()
	res := r.run(tr)
	t2 := time.Now()
	r.close()
	fmt.Printf("rep %d: traced %t setup %.3fs timed %.3fs checks %.3fs close %.3fs attempted %d failed %d%s\n",
		rep, tr != nil, setup, res.timed.Seconds(), (t2.Sub(t1) - res.timed).Seconds(), time.Since(t2).Seconds(),
		res.attempted, res.failed, res.summary())
	for _, p := range res.problems {
		fmt.Printf("  FAIL %s\n", p)
	}
	return res, setup, nil
}

func runUntraced(w workloadDef, cfg config) (jsonResult, error) {
	results, setups, err := runReps(w, cfg, func(int) *tracer { return nil })
	if err != nil {
		return jsonResult{}, err
	}
	vals := endToEndValues(results, setups)
	printE2E(w.name, vals, results)
	res := tally(results)
	res.Metrics = map[string]jsonMetric{}
	for _, m := range endToEnd {
		res.Metrics[m.name] = jsonMetric{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

// runTraced runs every repetition twice, untraced and traced, and reports
// per-layer metrics from the traced repetitions plus the overhead between
// the two. The pairs alternate which runs first, so warm-up and drift of
// the host do not land on one side.
func runTraced(w workloadDef, cfg config, spanDir string) (jsonResult, error) {
	var base, traced []*repResult
	tracers := map[int]*tracer{}
	for rep := 0; rep < repetitions(w, cfg); rep++ {
		tracers[rep] = newTracer()
		pair := []*tracer{nil, tracers[rep]}
		if rep%2 == 1 {
			pair[0], pair[1] = pair[1], pair[0]
		}
		for _, tr := range pair {
			res, _, err := runRep(w, cfg, rep, tr)
			if err != nil {
				return jsonResult{}, err
			}
			if tr == nil {
				base = append(base, res)
			} else {
				traced = append(traced, res)
			}
		}
	}
	vals := layerValues(traced)
	var offOverhead, onOverhead []float64
	for _, r := range base {
		offOverhead = append(offOverhead, r.overhead)
	}
	for _, r := range traced {
		onOverhead = append(onOverhead, r.overhead)
	}
	off, on := median(offOverhead), median(onOverhead)
	if off > 0 {
		vals["trace.overhead_share"] = (on - off) / off
	}
	printAttribution(w, traced, off, on)
	printLayers(vals)

	path := filepath.Join(mkdirAll(spanDir), fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := writeSpans(path, tracers); err != nil {
		return jsonResult{}, err
	}
	fmt.Printf("spans: %s\n", path)

	res := tally(append(base, traced...))
	res.Metrics = map[string]jsonMetric{}
	for _, m := range perLayer {
		res.Metrics[m.name] = jsonMetric{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

func tally(results []*repResult) jsonResult {
	var r jsonResult
	for _, x := range results {
		r.Attempted += x.attempted
		r.Failed += x.failed
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// endToEndValues folds the repetitions into one value per metric.
func endToEndValues(results []*repResult, setups []float64) map[string]float64 {
	vals := map[string]float64{"setup_s": median(setups)}
	perRep := map[string][]float64{}
	pooled := map[string][]time.Duration{}
	sums := map[string]frac{}
	for _, r := range results {
		for k, v := range r.e2e {
			perRep[k] = append(perRep[k], v)
		}
		for k, f := range r.frac {
			sums[k] = frac{sums[k].num + f.num, sums[k].den + f.den}
		}
		for kind, lats := range r.lat {
			perRep[kind+"_p50_us"] = append(perRep[kind+"_p50_us"], us(percentiles(lats, 0.50)[0]))
			pooled[kind] = append(pooled[kind], lats...)
		}
	}
	for k, v := range perRep {
		vals[k] = median(v)
	}
	for k, f := range sums {
		vals[k] = ratio(f.num, f.den)
	}
	// A repetition has too few samples beyond its 99th percentile.
	for kind, lats := range pooled {
		vals[kind+"_p99_us"] = us(percentiles(lats, 0.99)[0])
	}
	return vals
}

// layerValues folds traced repetitions into one value per per-layer metric
// (median over repetitions).
func layerValues(results []*repResult) map[string]float64 {
	perRep := map[string][]float64{}
	for _, r := range results {
		for k, v := range r.layer {
			perRep[k] = append(perRep[k], v)
		}
	}
	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.name] = median(perRep[m.name])
	}
	// A repetition has too few samples beyond its 99th percentile; pool
	// them over the repetitions.
	for _, kind := range []string{"insert", "read"} {
		var pooled []time.Duration
		for _, r := range results {
			if src := r.tail; src != nil {
				pooled = append(pooled, src[kind]...)
			} else {
				pooled = append(pooled, r.lat[kind]...)
			}
		}
		vals[kind+"_p99_us"] = us(percentiles(pooled, 0.99)[0])
	}
	return vals
}

func printE2E(name string, vals map[string]float64, results []*repResult) {
	res := tally(results)
	fmt.Printf("end-to-end (%s, %d repetitions, %d ops):\n", name, len(results), res.Attempted)
	for _, m := range endToEnd {
		fmt.Printf("  %-16s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	for _, name := range []string{"insert_p99_us", "read_p99_us"} {
		fmt.Printf("  %-16s %14.4f us (no bound)\n", name, vals[name])
	}
	fmt.Printf("  %-16s %14.4f share (%d failed of %d attempted)\n", "error_share",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
}

func printLayers(vals map[string]float64) {
	fmt.Println("per-layer (median over traced repetitions):")
	for _, m := range perLayer {
		fmt.Printf("  %-36s %16.4f %s\n", m.name, vals[m.name], m.unit)
	}
}

// gitCommit reads the checkout's HEAD commit without running git (the
// checkout may not be a repository; then it reports "unknown").
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

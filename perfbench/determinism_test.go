package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// small sizes the workloads so a traced run takes well under a second.
var small = scale{ingestBytes: 2 << 20, historyBytes: 2 << 20, historyReads: 400, mixOps: 300, mixRate: 150, mixOpen: 300 * time.Millisecond}

// measureSmall runs w traced at small scale and returns its end-to-end and
// per-layer values together, failing the test on any correctness failure.
func measureSmall(t *testing.T, w workloadDef, seed int64) map[string]float64 {
	t.Helper()
	cfg := config{seed: seed, seconds: 0.3, workDir: t.TempDir(), scale: small, minReps: 1}
	results, setups, err := runReps(w, cfg, func(int) *tracer { return newTracer() })
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if res := tally(results); !res.Correct {
		for _, r := range results {
			for _, p := range r.problems {
				t.Log(p)
			}
		}
		t.Fatalf("%s seed %d: %d of %d operations failed", w.name, seed, res.Failed, res.Attempted)
	}
	vals := endToEndValues(results, setups)
	for k, v := range layerValues(results) {
		vals[k] = v
	}
	return vals
}

// The count metrics are what later changes claim against when timing noise
// is too wide; they must repeat exactly for a seed.
func TestCountMetricsRepeatForASeed(t *testing.T) {
	counts := []string{
		"storage_ratio", "network_ratio", "core.dedup_hit_share",
		"chunker.avg_chunk_bytes", "node.decode_steps_per_read", "docstore.block_lookups_per_read",
	}
	for _, w := range []workloadDef{ingestWiki, readHistory} {
		a, b := measureSmall(t, w, 7), measureSmall(t, w, 7)
		for _, name := range counts {
			if a[name] != b[name] {
				t.Errorf("%s %s: %v then %v", w.name, name, a[name], b[name])
			}
		}
		if a["storage_ratio"] <= 1 {
			t.Errorf("%s storage_ratio %v: the corpus did not deduplicate", w.name, a["storage_ratio"])
		}
	}
}

func TestHeldOutSeedRunsClean(t *testing.T) {
	for _, w := range workloads {
		vals := measureSmall(t, w, 90210)
		for _, m := range endToEnd {
			if vals[m.name] <= 0 {
				t.Errorf("%s %s = %v, want > 0", w.name, m.name, vals[m.name])
			}
		}
	}
}

// read-history claims to bypass the encode path; its timed phase must not
// encode anything.
func TestReadHistoryDoesNotEncode(t *testing.T) {
	if v := measureSmall(t, readHistory, 11)["core.encode_busy_s"]; v != 0 {
		t.Errorf("read-history core.encode_busy_s = %v, want 0", v)
	}
}

// BENCHMARK.json and the metric declarations here must name the same
// metrics, or the file and the program disagree about what a run reports.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the program %d/%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	var setupBound, maxOther float64
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

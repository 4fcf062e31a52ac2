package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	h.Observe(10 * time.Microsecond)
	h.Observe(20 * time.Microsecond)
	h.Observe(30 * time.Microsecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if m := h.Mean(); m != 20*time.Microsecond {
		t.Fatalf("Mean = %v", m)
	}
}

func TestHistogramQuantilesAgainstExact(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	samples := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-normal-ish latency distribution: most fast, long tail.
		d := time.Duration(50+rng.ExpFloat64()*500) * time.Microsecond
		samples = append(samples, d)
		h.Observe(d)
	}
	exact := Percentiles(samples, 0.5, 0.99, 0.999)
	for i, q := range []float64{0.5, 0.99, 0.999} {
		got := h.Quantile(q)
		// Bucketed estimate must be within ~12.5% above the exact value
		// (one sub-bucket of slack, plus the bucket upper-bound bias).
		lo := exact[i]
		hi := exact[i] + exact[i]/6 + 2*time.Microsecond
		if got < lo || got > hi {
			t.Errorf("q=%v: got %v, exact %v (acceptable [%v, %v])", q, got, exact[i], lo, hi)
		}
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		h.Observe(time.Duration(rng.Intn(1000)+1) * time.Microsecond)
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	prevV, prevF := time.Duration(0), 0.0
	for _, pt := range cdf {
		if pt.Value <= prevV && prevV != 0 {
			t.Fatalf("CDF values not increasing: %v after %v", pt.Value, prevV)
		}
		if pt.Fraction < prevF {
			t.Fatalf("CDF fractions not monotone")
		}
		prevV, prevF = pt.Value, pt.Fraction
	}
	if last := cdf[len(cdf)-1].Fraction; last != 1.0 {
		t.Fatalf("CDF ends at %v, want 1.0", last)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i+1) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Add(3)
			}
		}()
	}
	wg.Wait()
	if m.Total() != 24000 {
		t.Fatalf("Total = %d, want 24000", m.Total())
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(10 * time.Millisecond)
	s.Add(5)
	s.Add(7)
	time.Sleep(25 * time.Millisecond)
	s.Add(1)
	vals := s.Values()
	if len(vals) < 3 {
		t.Fatalf("series too short: %v", vals)
	}
	if vals[0] != 12 {
		t.Errorf("slot 0 = %d, want 12", vals[0])
	}
	var total int64
	for _, v := range vals {
		total += v
	}
	if total != 13 {
		t.Errorf("series total = %d, want 13", total)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(100, 10); got != 10 {
		t.Errorf("Ratio(100,10) = %v", got)
	}
	if got := Ratio(100, 0); got != 0 {
		t.Errorf("Ratio with zero denominator = %v, want 0", got)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.0 KiB",
		5 << 20: "5.0 MiB",
		3 << 30: "3.0 GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestPercentilesEdgeCases(t *testing.T) {
	if got := Percentiles(nil, 0.5); got[0] != 0 {
		t.Error("Percentiles(nil) non-zero")
	}
	got := Percentiles([]time.Duration{5 * time.Millisecond}, 0.001, 0.999)
	if got[0] != 5*time.Millisecond || got[1] != 5*time.Millisecond {
		t.Errorf("single-sample percentiles = %v", got)
	}
}

func TestApplyMetricsSnapshot(t *testing.T) {
	m := NewApplyMetrics()
	m.Workers.Set(4)
	m.QueueDepth.Add(3)
	m.QueueDepth.Add(-1)
	m.QueueOverflows.Add(2)
	m.Applied.Add(10)
	m.BaseFetches.Add(1)
	m.Latency().Observe(100 * time.Microsecond)
	m.Latency().Observe(300 * time.Microsecond)

	snap := m.Snapshot()
	if snap.Workers != 4 {
		t.Errorf("Workers = %d, want 4", snap.Workers)
	}
	if snap.QueueDepth != 2 {
		t.Errorf("QueueDepth = %d, want 2", snap.QueueDepth)
	}
	if snap.QueueOverflows != 2 || snap.Applied != 10 || snap.BaseFetches != 1 {
		t.Errorf("counters = %d/%d/%d, want 2/10/1",
			snap.QueueOverflows, snap.Applied, snap.BaseFetches)
	}
	if snap.LatencyCount != 2 {
		t.Errorf("LatencyCount = %d, want 2", snap.LatencyCount)
	}
	if snap.LatencyMeanUS < 150 || snap.LatencyMeanUS > 250 {
		t.Errorf("LatencyMeanUS = %d, want ~200", snap.LatencyMeanUS)
	}
	if snap.LatencyP99US < snap.LatencyP50US {
		t.Errorf("p99 %d < p50 %d", snap.LatencyP99US, snap.LatencyP50US)
	}
}

// TestHistogramBucketBoundaries pins the bucket mapping: exact 1µs buckets
// below 16µs, then 16 sub-buckets per octave, with the last bucket also
// absorbing everything larger.
func TestHistogramBucketBoundaries(t *testing.T) {
	const us = time.Microsecond
	const last = histBuckets - 1
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-us, 0}, {0, 0}, {us, 1}, {15 * us, 15}, {16 * us, 16}, {31 * us, 31},
		{32 * us, 32}, {33 * us, 32}, {34 * us, 33}, {63 * us, 47}, {64 * us, 48},
		{(1 << 20) * us, 272}, {(1 << 32) * us, 464},
		{((1 << 33) - 1) * us, last}, {(1 << 33) * us, last}, {(1 << 40) * us, last},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every octave boundary 2^k µs opens bucket (k-3)·16, whose upper bound
	// is 17·2^(k-4) − 1 µs; the bucket before it ends at 2^k − 1 µs.
	for k := 4; (k-3)<<histSubBits <= last; k++ {
		lo := time.Duration(1<<k) * us
		first := (k - 3) << histSubBits
		if got := bucketOf(lo); got != first {
			t.Errorf("bucketOf(2^%d µs) = %d, want %d", k, got, first)
		}
		if got := bucketOf(lo - us); got != first-1 {
			t.Errorf("bucketOf(2^%d−1 µs) = %d, want %d", k, got, first-1)
		}
		if got := bucketUpper(first - 1); got != lo-us {
			t.Errorf("bucketUpper(%d) = %v, want %v", first-1, got, lo-us)
		}
		if got, want := bucketUpper(first), time.Duration(17<<(k-4)-1)*us; got != want {
			t.Errorf("bucketUpper(%d) = %v, want %v", first, got, want)
		}
	}
	// Buckets tile the range: each upper bound maps back to its bucket and
	// the next microsecond opens the following one.
	for b := 0; b <= last; b++ {
		if got := bucketOf(bucketUpper(b)); got != b {
			t.Errorf("bucketOf(bucketUpper(%d)) = %d", b, got)
		}
		if b < last {
			if got := bucketOf(bucketUpper(b) + us); got != b+1 {
				t.Errorf("bucketOf(bucketUpper(%d)+1µs) = %d, want %d", b, got, b+1)
			}
		}
	}
}

package main

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestTailNeedsTenSamplesBeyondP99(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n          int
		want       float64
		wantBeyond int
	}{
		{1000, 990, 10},
		{999, 990, 9},
		{1500, 1485, 15},
		{10, 10, 0},
	} {
		v, beyond := tail(samples(tc.n), 0.99)
		if v != tc.want || beyond != tc.wantBeyond {
			t.Errorf("n=%d: p99 %v with %d beyond, want %v with %d", tc.n, v, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, beyond := tail(nil, 0.99); v != 0 || beyond != 0 {
		t.Errorf("empty: %v, %d", v, beyond)
	}
}

func TestQuietLatency(t *testing.T) {
	// Four windows of 1000; the last two run in a host stall that
	// doubles every latency, and the first has a spike in its top 1%.
	var s []float64
	for w := range 4 {
		for i := range 1000 {
			v := float64(i + 1)
			if w >= 2 {
				v *= 2
			}
			if w == 0 && i >= 990 {
				v = 1e6
			}
			s = append(s, v)
		}
	}
	if got := windowQuantiles(s, 0.99); len(got) != 4 || got[0] != 990 || got[1] != 990 || got[2] != 1980 || got[3] != 1980 {
		t.Errorf("window p99s %v, want 990 990 1980 1980 (the spike lies beyond p99)", got)
	}
	if got := quietLatency(s, 0.99); got != 990 {
		t.Errorf("quiet p99 %v, want the first quartile of the windows, 990", got)
	}
	if got := quietLatency(s, 0.5); got != 500 {
		t.Errorf("quiet p50 %v, want 500", got)
	}
	s[1980] = 1e6 // the spike now reaches the second window's p99 as well
	if got := quietLatency(s, 0.99); got != 990 {
		t.Errorf("quiet p99 %v, want 990 from the first window", got)
	}
	if got := quietLatency(s[:1500], 0.99); got != loadgenP99(s[:1500]) {
		t.Errorf("under two windows the whole sample is one window: %v", got)
	}
}

func loadgenP99(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := tail(s, 0.99)
	return v
}

func TestQuantileAndPerSecond(t *testing.T) {
	xs := []float64{100, 1, 5, 6, 7, 8, 9, 0}
	if got := quantile(xs, 0.25); got != 1 {
		t.Errorf("first quartile %v, want 1", got)
	}
	if got := quantile(xs, 0.75); got != 8 {
		t.Errorf("third quartile %v, want 8", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing %v, want 0", got)
	}
	// Four seconds of 10, 20, 10 and 40 answers, evenly spread in
	// each: four runs of 20 answers, ending at 1.5, 3, 3.5 and 4 s.
	var ats []time.Duration
	for sec, n := range []int{10, 20, 10, 40} {
		for i := range n {
			ats = append(ats, time.Duration(sec)*time.Second+time.Duration(i+1)*time.Second/time.Duration(n))
		}
	}
	rates := []float64{20 / 1.5, 20 / 1.5, 20 / 0.5, 20 / 0.5}
	if got := perSecond(ats, 4*time.Second); math.Abs(got-quantile(rates, 0.75)) > 1e-9 {
		t.Errorf("perSecond %v, want the third quartile of %v", got, rates)
	}
	if got := perSecond(ats[:5], 500*time.Millisecond); got != 10 {
		t.Errorf("perSecond under a second %v, want the plain rate 10", got)
	}
	if got := perSecond(nil, 4*time.Second); got != 0 {
		t.Errorf("perSecond of nothing %v, want 0", got)
	}
}

func TestAccountingIdentity(t *testing.T) {
	reg := "sched: g on m: no schedule in II range [3, 90] (causes: map[fu:2 reg:7], last failing node 4)"
	outs := []outcome{
		{code: ""},
		{code: ""},
		{code: wire.CodeUnschedulable, message: reg},
		{code: wire.CodeOverCapacity},
		{code: codeTransport},
	}
	a := account(outs)
	if a.attempted != 5 || a.scheduled != 2 || a.unschedulable != 1 || a.failed() != 2 {
		t.Fatalf("attempted %d scheduled %d unschedulable %d failed %d", a.attempted, a.scheduled, a.unschedulable, a.failed())
	}
	if a.failures[wire.CodeOverCapacity] != 1 || a.failures[codeTransport] != 1 || a.failures[wire.CodeUnschedulable] != 0 {
		t.Fatalf("failures by code %v", a.failures)
	}
	if a.byCause["reg"] != 1 {
		t.Fatalf("by cause %v", a.byCause)
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}

	lost := a
	lost.attempted++ // a request that settled nowhere
	if lost.check() == nil {
		t.Error("a request missing from every bucket passed the check")
	}
	uncaused := account(outs)
	uncaused.byCause = map[string]int{}
	if uncaused.check() == nil {
		t.Error("an unschedulable answer without a cause passed the check")
	}
}

func TestCauseOf(t *testing.T) {
	for msg, want := range map[string]string{
		"no schedule (causes: map[fu:2 reg:7], last failing node 4)":   "reg",
		"no schedule (causes: map[fu:9 comm:3], last failing node 4)":  "fu",
		"no schedule (causes: map[comm:5 reg:5], last failing node 1)": "bus",
		"no schedule (causes: map[], last failing node -1)":            "unknown",
		"engine: empty graph": "unknown",
	} {
		if got := causeOf(msg); got != want {
			t.Errorf("causeOf(%q) = %q, want %q", msg, got, want)
		}
	}
}

func TestScaleToHost(t *testing.T) {
	v := map[string]float64{"p50_ms": 2, "p99_ms": 8, "capacity_qps": 1000, "server_cpu_ms_per_ok": 0.5, "setup_s": 3, "ipc": 2, "rss_peak_mb": 20}
	scaleToHost(v, 2*probeRefMS) // a host half as fast as the reference
	want := map[string]float64{"p50_ms": 1, "p99_ms": 4, "capacity_qps": 2000, "server_cpu_ms_per_ok": 0.25, "setup_s": 1.5, "ipc": 2, "rss_peak_mb": 20}
	for name, w := range want {
		if math.Abs(v[name]-w) > 1e-12 {
			t.Errorf("%s scaled to %v, want %v", name, v[name], w)
		}
	}
}

func TestHostProbeRecordsRounds(t *testing.T) {
	p := startHostProbe()
	time.Sleep(3*probeEvery + probeEvery/2)
	if ms := p.finish(); ms <= 0 || len(p.rounds) < 2 {
		t.Errorf("probe took %v ms over %d rounds, want a positive time over at least 2", ms, len(p.rounds))
	}
}

// Command perfbench is the repository benchmark.  It launches real
// schedd (and schedrouter) processes built from this checkout, drives
// one seeded workload through internal/client, checks every answer and
// prints the run's metrics.
//
//	bash perfbench/run.sh --workload hit_inline --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the last line of standard output is the run's
// end-to-end metrics; with --trace 1 the same workload runs again and
// is then replayed in process with spans around each layer's calls,
// and the last line carries the per-layer metrics.  README.md lists
// the workloads, the metrics and the predictions that tie them
// together.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, printed by an
// untraced run.
var endToEnd = []metric{
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"capacity_qps", "1/s"},
	{"scheduled_ratio", "ratio"},
	{"server_cpu_ms_per_ok", "ms"},
	{"rss_peak_mb", "MiB"},
	{"setup_s", "s"},
	{"ipc", "ops/cycle"},
}

// perLayer are the traced run's metrics, named by package.
var perLayer = []metric{
	{"wire.decode_us", "us"},
	{"wire.decode_allocs", "count"},
	{"ddg.fingerprint_us", "us"},
	{"pipeline.hit_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.encode_allocs", "count"},
	{"wire.request_kb", "KiB"},
	{"wire.response_kb", "KiB"},
	{"service.handler_hit_us", "us"},
	{"service.handler_miss_ms", "ms"},
	{"service.self_us", "us"},
	{"service.rejected_429", "count"},
	{"service.deadline_504", "count"},
	{"pipeline.hit_rate", "ratio"},
	{"pipeline.evictions", "count"},
	{"pipeline.peer_hits", "count"},
	{"pipeline.dedup_joins", "count"},
	{"pipeline.compilations", "count"},
	{"cluster.router_hop_us", "us"},
	{"cluster.peer_fetch_us", "us"},
	{"cluster.shard_skew", "ratio"},
	{"engine.compile_ms.p50", "ms"},
	{"engine.compile_ms.p99", "ms"},
	{"engine.candidate_ms.no_unroll", "ms"},
	{"engine.candidate_ms.unroll_all", "ms"},
	{"engine.candidate_ms.selective", "ms"},
	{"engine.candidate_useful.unroll_all", "ratio"},
	{"engine.candidate_fail.unroll_all", "count"},
	{"engine.stage_ms.analyze", "ms"},
	{"engine.stage_ms.unroll", "ms"},
	{"engine.stage_ms.schedule", "ms"},
	{"engine.stage_ms.validate", "ms"},
	{"sched.schedule_ms", "ms"},
	{"sched.attempts_per_compile", "count"},
	{"sched.ii_over_min", "ratio"},
	{"sched.no_schedule", "count"},
	{"sched.cause.reg", "count"},
	{"sched.cause.fu", "count"},
	{"sched.cause.bus", "count"},
	{"sched.ipc_charged", "ops/cycle"},
	{"client.lag_ms", "ms"},
	{"client.transport_us", "us"},
	{"trace.overhead_us", "us"},
	{"trace.overhead_pct", "%"},
	{"host.probe_ms", "ms"},
}

const (
	// setupRuns is how many times a run sets up its fleet; setup_s is
	// the median.
	setupRuns = 3
	// maxLagMS is the median time from an answer to the client's next
	// send beyond which a run is invalid: the generator, not the
	// program, then set the pace.
	maxLagMS = 5
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: hit_inline or miss_portfolio")
		seed    = flag.Uint64("seed", 1, "workload seed (README.md records the default and held-out seeds)")
		seconds = flag.Int("seconds", 40, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
		binDir  = flag.String("bin", ".bench_build/perfbench/bin", "directory holding the schedd and schedrouter binaries")
		workDir = flag.String("work", ".bench_build/perfbench/work", "directory for daemon logs and span files")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}

	// The generator runs no wider than the host.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), nproc))

	w, err := buildWorkload(*name, *seed, *seconds)
	if err != nil {
		return fail(err)
	}
	runDir := filepath.Join(*workDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var setups []float64
	var f *fleet
	for range setupRuns {
		if f != nil {
			f.stop()
		}
		var d time.Duration
		if f, d, err = setUp(ctx, w, *binDir, runDir, nproc); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, d.Seconds())
	}
	hp := startHostProbe()
	m, err := measure(ctx, w, f, nproc)
	probeMS := hp.finish()
	f.stop()
	if err != nil {
		return fail(err)
	}
	if probeMS <= 0 {
		return fail(fmt.Errorf("the host probe ran no rounds"))
	}
	if ctx.Err() != nil {
		return fail(ctx.Err())
	}

	if err := writeLatencies(filepath.Join(runDir, "latency.tsv"), m.outs); err != nil {
		return fail(err)
	}
	chk := checkOutputs(w.keys, m.outs, nproc)
	acct := account(m.outs)
	var problems []string
	problems = append(problems, chk.violations...)
	if err := acct.check(); err != nil {
		problems = append(problems, err.Error())
	}
	lat := m.latencies()
	sort.Float64s(lat)
	_, beyond := tail(lat, 0.99)
	if beyond < minBeyond {
		problems = append(problems, fmt.Sprintf("only %d of %d latency samples beyond p99, need %d", beyond, len(lat), minBeyond))
	}
	if m.sent == len(w.plan) && m.elapsed < w.runFor {
		problems = append(problems, fmt.Sprintf("the plan ran out after %v, before the run's %v", m.elapsed.Round(time.Millisecond), w.runFor))
	}
	if lag := m.lagMS(); lag > maxLagMS {
		problems = append(problems, fmt.Sprintf("clients took a median %.2f ms from an answer to their next send, bound %d ms", lag, maxLagMS))
	}

	fmt.Printf("perfbench %s seed %d: %s, cache hit rate %.3f\n", w.name, *seed, acct, m.hitRate())
	p99s := windowQuantiles(m.latencies(), 0.99)
	fmt.Printf("  latency p99 over %d windows: min %.2f, first quartile %.2f, median %.2f, max %.2f ms\n",
		len(p99s), quantile(p99s, 0), quantile(p99s, 0.25), median(p99s), quantile(p99s, 1))
	fmt.Printf("  host probe round %.3f ms of CPU (first quartile): timed metrics scale by %.3f to the %.1f ms reference host\n",
		probeMS, hostScale(probeMS), probeRefMS)
	for _, k := range chk.failing(w.keys) {
		fmt.Printf("  no schedule: %s\n", k)
	}
	for _, p := range problems {
		fmt.Printf("  INVALID: %s\n", p)
	}

	var values map[string]float64
	var names []metric
	if *trace == 0 {
		values, names = endToEndValues(m, chk, setups), endToEnd
		fmt.Printf("  unscaled: p50 %.4f ms, p99 %.4f ms, capacity %.1f/s, cpu %.4f ms per answer, setup %.4f s\n",
			values["p50_ms"], values["p99_ms"], values["capacity_qps"], values["server_cpu_ms_per_ok"], values["setup_s"])
		scaleToHost(values, probeMS)
	} else {
		r, err := tracedReplay(ctx, w, w.plan[:min(m.sent, w.traceRequests)])
		if err != nil {
			return fail(fmt.Errorf("traced replay: %w", err))
		}
		out := filepath.Join(runDir, "spans.jsonl")
		if err := writeSpans(out, r.spans); err != nil {
			return fail(err)
		}
		fmt.Printf("  %d spans written to %s\n", len(r.spans), out)
		values, names = perLayerValues(m, chk, r), perLayer
		values["host.probe_ms"] = probeMS
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, mt := range names {
		v, ok := values[mt.name]
		if !ok {
			return fail(fmt.Errorf("metric %s was not computed", mt.name))
		}
		metrics[mt.name] = value{v, mt.unit}
		fmt.Printf("  %-36s %14.4f %s\n", mt.name, v, mt.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(problems) == 0, acct.attempted, acct.failed(), metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if len(problems) > 0 {
		return 2 // the answers or the run itself failed a check
	}
	return 0
}

// measurement is what the timed phase of one run observed.
type measurement struct {
	outs    []outcome
	elapsed time.Duration
	// sent counts the requests sent.
	sent int
	// cpu samples the fleet's CPU time every cpuWindow, since the
	// timed phase began.
	cpu []cpuSample
	rss int64
	// before and after are each replica's /v1/stats around the phase.
	before, after []*wire.StatsResponse
}

// latencies are the latency samples, in ms and in send order.
func (m *measurement) latencies() []float64 {
	ms := make([]float64, len(m.outs))
	for i, o := range m.outs {
		ms[i] = float64(o.latency) / float64(time.Millisecond)
	}
	return ms
}

// lagMS is the generator's median delay from an answer to the next
// send.
func (m *measurement) lagMS() float64 {
	var lags []float64
	for _, o := range m.outs {
		lags = append(lags, float64(o.lag)/float64(time.Millisecond))
	}
	return median(lags)
}

// measure runs the timed phase against a set-up fleet.
func measure(ctx context.Context, w *workload, f *fleet, nproc int) (*measurement, error) {
	g, err := newGenerator(f.front(), nproc)
	if err != nil {
		return nil, err
	}
	defer g.close()
	m := &measurement{}
	if m.before, err = replicaStats(ctx, f); err != nil {
		return nil, err
	}
	start := time.Now()
	sample := func() error {
		c, err := f.cpuTime()
		m.cpu = append(m.cpu, cpuSample{time.Since(start), c})
		return err
	}
	if err := sample(); err != nil {
		return nil, err
	}
	stop, sampled := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(cpuWindow)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := sample(); err != nil {
					sampled <- err
					return
				}
			case <-stop:
				sampled <- nil
				return
			}
		}
	}()
	m.outs, m.elapsed = g.runClosed(ctx, w.keys, w.plan, w.runFor, w.minKeys)
	for _, o := range m.outs {
		m.sent = max(m.sent, o.seq+1)
	}
	close(stop)
	if err := <-sampled; err != nil {
		return nil, err
	}
	if m.after, err = replicaStats(ctx, f); err != nil {
		return nil, err
	}
	if m.rss, err = f.peakRSS(); err != nil {
		return nil, err
	}
	return m, nil
}

// cpuSample is the fleet's CPU time at one instant of the timed
// phase.
type cpuSample struct{ at, cpu time.Duration }

// cpuWindow is the sampling period of the fleet's CPU time.
const cpuWindow = 2 * time.Second

// cpuPerOK is the first quartile, over the sampling windows, of the
// fleet's CPU time per answer — a schedule or an unschedulable
// verdict — settled in the window.
func (m *measurement) cpuPerOK() float64 {
	var perOK []float64
	for i := 1; i < len(m.cpu); i++ {
		lo, hi := m.cpu[i-1], m.cpu[i]
		ok := 0
		for _, o := range m.outs {
			if answered(o.code) && o.at > lo.at && o.at <= hi.at {
				ok++
			}
		}
		if ok > 0 {
			perOK = append(perOK, float64(hi.cpu-lo.cpu)/float64(time.Millisecond)/float64(ok))
		}
	}
	return quantile(perOK, 0.25)
}

// replicaStats reads /v1/stats from every schedd replica.
func replicaStats(ctx context.Context, f *fleet) ([]*wire.StatsResponse, error) {
	var out []*wire.StatsResponse
	for _, d := range f.replicas {
		cl, err := client.New(client.Config{Endpoints: []string{d.url}, Attempts: 1})
		if err != nil {
			return nil, err
		}
		st, err := cl.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s stats: %w", d.name, err)
		}
		out = append(out, st)
	}
	return out, nil
}

// endToEndValues computes the untraced run's metrics.
func endToEndValues(m *measurement, chk *checked, setups []float64) map[string]float64 {
	lat := m.latencies()
	all := account(m.outs)
	var settled []time.Duration
	for _, o := range m.outs {
		if answered(o.code) {
			settled = append(settled, o.at)
		}
	}
	return map[string]float64{
		"p50_ms":               quietLatency(lat, 0.5),
		"p99_ms":               quietLatency(lat, 0.99),
		"capacity_qps":         perSecond(settled, m.elapsed),
		"scheduled_ratio":      ratio(float64(all.scheduled), float64(all.attempted)),
		"server_cpu_ms_per_ok": m.cpuPerOK(),
		"rss_peak_mb":          float64(m.rss) / (1 << 20),
		"setup_s":              median(setups),
		"ipc":                  chk.ipc(),
	}
}

// writeLatencies keeps every timed request's settle time, send lag
// and latency, in ms, for looking at a run's distribution after the
// fact.
func writeLatencies(path string, outs []outcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "at_ms\tlag_ms\tlatency_ms\tcode")
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, o := range outs {
		fmt.Fprintf(w, "%.3f\t%.3f\t%.3f\t%s\n", ms(o.at), ms(o.lag), ms(o.latency), o.code)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

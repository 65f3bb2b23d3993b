package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/wire"
)

// inproc is the program assembled inside the benchmark for the traced
// replay: a bare pipeline behind the request path's layers, and the
// front door the daemons expose — one service.Server, or a
// cluster.Router over loopback service.Servers that federate their
// caches.
type inproc struct {
	t         *tracer
	pipe      *pipeline.Pipeline
	front     http.Handler
	frontName string
	servers   []*service.Server
	urls      []string
	closers   []func()
}

func newInproc(ctx context.Context, w *workload, t *tracer) (*inproc, error) {
	p := &inproc{t: t, pipe: pipeline.New(0)}
	p.pipe.SetCacheBytes(w.cacheBytes)
	if w.replicas == 1 {
		srv := service.New(service.Config{CacheBytes: w.cacheBytes})
		p.servers = []*service.Server{srv}
		p.front, p.frontName = srv.Handler(), "service.handler"
		return p, nil
	}
	var reps []cluster.Replica
	for i := range w.replicas {
		srv := service.New(service.Config{CacheBytes: w.cacheBytes})
		ts := httptest.NewServer(t.wrap(srv.Handler()))
		p.closers = append(p.closers, ts.Close)
		p.servers = append(p.servers, srv)
		p.urls = append(p.urls, ts.URL)
		reps = append(reps, cluster.Replica{Name: fmt.Sprintf("s%d", i+1), URL: ts.URL})
	}
	for i, srv := range p.servers {
		pl, err := cluster.NewPeerLookup(cluster.PeerConfig{Self: p.urls[i], Peers: p.urls})
		if err != nil {
			p.close()
			return nil, err
		}
		srv.Pipeline().SetPeerLookup(pl.Func())
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Replicas: reps})
	if err != nil {
		p.close()
		return nil, err
	}
	if ready := rt.Probe(ctx); ready != len(reps) {
		p.close()
		return nil, fmt.Errorf("in-process router: %d of %d replicas ready", ready, len(reps))
	}
	p.front, p.frontName = rt.Handler(), "cluster.router"
	return p, nil
}

func (p *inproc) close() {
	for _, c := range p.closers {
		c()
	}
}

// misses sums the front's pipeline misses.
func (p *inproc) misses() int64 {
	var n int64
	for _, s := range p.servers {
		n += s.Pipeline().Stats().Misses
	}
	return n
}

// encodeRequest renders a key's compile request byte for byte as
// internal/client sends it.
func encodeRequest(k key) []byte {
	req := k.request()
	b, err := json.Marshal(&req)
	if err != nil {
		panic(err) // generated requests always encode
	}
	return b
}

// resolve maps a decoded request to the pipeline request the service
// would build from it.
func resolve(req *wire.CompileRequest) (pipeline.Request, error) {
	cfg, ok := machine.ConfigByName(req.MachineRef)
	if !ok {
		return pipeline.Request{}, fmt.Errorf("unknown machine %q", req.MachineRef)
	}
	opts, werr := req.Options.Core()
	if werr != nil {
		return pipeline.Request{}, werr
	}
	return pipeline.Request{Loop: req.Loop, Cfg: cfg, Opts: opts}, nil
}

func hitNote(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// layered runs one request through the request path a layer at a
// time — wire.decode, ddg.fingerprint, pipeline.compile, wire.encode —
// each under its own span below a request root.  It returns the
// decoded request and whether the pipeline answered from its cache.
func (p *inproc) layered(ctx context.Context, e int, b []byte) (wire.CompileRequest, bool, error) {
	t := p.t
	root := t.begin("request", e, -1)
	defer t.end(root)

	var req wire.CompileRequest
	d := t.begin("wire.decode", e, root)
	err := wire.DecodeStrict(bytes.NewReader(b), &req)
	t.end(d)
	if err != nil {
		return req, false, err
	}

	fp := t.begin("ddg.fingerprint", e, root)
	req.Loop.Graph.Fingerprint()
	t.end(fp)
	preq, err := resolve(&req)
	if err != nil {
		return req, false, err
	}
	var before int64
	if !t.off {
		before = p.pipe.Stats().Misses
	}
	pc := t.begin("pipeline.compile", e, root)
	res, cerr := p.pipe.CompileCtx(ctx, preq)
	t.end(pc)
	hit := false
	if !t.off {
		hit = p.pipe.Stats().Misses == before
		t.note(pc, hitNote(hit))
	}

	enc := t.begin("wire.encode", e, root)
	encodeResult(res, cerr)
	t.end(enc)
	return req, hit, nil
}

// encodeResult renders an answer the way the service writes it.
func encodeResult(res *core.Result, err error) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err != nil {
		enc.Encode(wire.ErrorResponse{V: wire.Version, Error: wire.Errorf(wire.CodeUnschedulable, "%v", err)})
	} else {
		enc.Encode(wire.CompileResponse{V: wire.Version, Result: wire.FromResult(res)})
	}
	return buf.Bytes()
}

// probe sends a request's bytes through the front door's handler
// under a root span, noting whether the fleet compiled anything for
// it.  It returns the response size.
func (p *inproc) probe(e int, b []byte) (int, error) {
	t := p.t
	before := p.misses()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(b))
	fs := t.begin(p.frontName, e, -1)
	t.within(e, fs)
	p.front.ServeHTTP(rec, req)
	t.end(fs)
	t.within(-1, -1)
	t.note(fs, hitNote(p.misses() == before))
	if rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
		return 0, fmt.Errorf("front door answered %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Len(), nil
}

// candidates are the portfolio's strategies, each timed alone.
var candidates = []string{"no_unroll", "unroll_all", "selective"}

// probeEngine times each portfolio candidate run alone through
// engine.CompileCtx, and one bare sched.ScheduleGraph, on a key the
// pipeline had to compile.
func (p *inproc) probeEngine(ctx context.Context, e int, preq pipeline.Request) {
	t := p.t
	for _, name := range candidates {
		s := t.begin("engine.candidate."+name, e, -1)
		_, err := engine.CompileCtx(ctx, preq.Loop.Graph, &preq.Cfg, &engine.Options{Strategy: engine.Strategy(name)})
		t.end(s)
		if err != nil {
			t.note(s, "fail")
		}
	}
	s := t.begin("sched.schedule", e, -1)
	_, err := sched.ScheduleGraph(preq.Loop.Graph, &preq.Cfg, &sched.Options{})
	t.end(s)
	if err != nil {
		t.note(s, "fail")
	}
}

// replayed is what the traced replay measured beyond its spans.
type replayed struct {
	spans []span
	// requestBytes and responseBytes are per-request body sizes.
	requestBytes, responseBytes []float64
	// decodeAllocs and encodeAllocs are heap allocations per call.
	decodeAllocs, encodeAllocs float64
	// overhead is the per-request cost of recording spans on the
	// layered path, absolute and relative to the untraced path.
	overhead    time.Duration
	overheadPct float64
}

// Sizes of the replay's side measurements.
const (
	allocPassRequests    = 200
	overheadPassRequests = 500
	overheadRepeats      = 3
	peerFetchKeys        = 50
)

// tracedReplay replays the plan's requests in their original order, in
// process, after warming the same keys set-up warms.
func tracedReplay(ctx context.Context, w *workload, plan []int) (*replayed, error) {
	t := newTracer()
	p, err := newInproc(ctx, w, t)
	if err != nil {
		return nil, err
	}
	defer p.close()

	if err := p.warm(ctx, w.warm); err != nil {
		return nil, err
	}

	r := &replayed{}
	bodies := make([][]byte, len(plan))
	for e, k := range plan {
		b := encodeRequest(w.keys[k])
		bodies[e] = b
		req, hit, err := p.layered(ctx, e, b)
		if err != nil {
			return nil, err
		}
		n, err := p.probe(e, b)
		if err != nil {
			return nil, err
		}
		if !hit {
			preq, _ := resolve(&req) // resolved once already in layered
			p.probeEngine(ctx, e, preq)
		}
		r.requestBytes = append(r.requestBytes, float64(len(b)))
		r.responseBytes = append(r.responseBytes, float64(n))
	}
	if len(p.urls) > 0 {
		p.peerFetches(ctx)
	}
	r.spans = t.spans

	// Side passes, untraced: allocations per decode and encode, then
	// the layered path with and without span recording.
	t.off = true
	t.spans = nil
	if r.decodeAllocs, r.encodeAllocs, err = p.allocPass(ctx, bodies); err != nil {
		return nil, err
	}
	p.pipe.SetCacheBytes(0) // every request of the overhead pass hits
	n := min(len(bodies), overheadPassRequests)
	for e := range n {
		if _, _, err := p.layered(ctx, e, bodies[e]); err != nil {
			return nil, err
		}
	}
	// Each request runs untraced and traced back to back, in
	// alternating order, so the per-request difference is free of
	// drift and warm-cache bias and its median free of collection
	// pauses.
	var diffs, offs []float64
	for rep := range overheadRepeats {
		for e := range n {
			var d [2]time.Duration // untraced, traced
			for i := range 2 {
				traced := (i+e+rep)%2 == 1
				t.off = !traced
				t.spans = t.spans[:0]
				start := time.Now()
				// The same bodies just went through without error.
				_, _, _ = p.layered(ctx, e, bodies[e])
				if traced {
					d[1] = time.Since(start)
				} else {
					d[0] = time.Since(start)
				}
			}
			offs = append(offs, float64(d[0]))
			diffs = append(diffs, float64(d[1]-d[0]))
		}
	}
	r.overhead = time.Duration(median(diffs))
	r.overheadPct = 100 * ratio(median(diffs), median(offs))
	return r, nil
}

// warm brings the caches to the state set-up leaves the daemons in:
// the layered path's pipeline compiles the warm keys, one server loads
// its entries, and then every key goes through the front door once —
// which compiles what a snapshot cannot carry (failures) and, in a
// cluster, puts each key on its shard.
func (p *inproc) warm(ctx context.Context, keys []key) error {
	reqs := make([]pipeline.Request, len(keys))
	for i, k := range keys {
		cfg, ok := machine.ConfigByName(k.machine)
		if !ok {
			return fmt.Errorf("unknown machine %q", k.machine)
		}
		opts, werr := k.request().Options.Core()
		if werr != nil {
			return werr
		}
		reqs[i] = pipeline.Request{Loop: k.loop, Cfg: cfg, Opts: opts}
	}
	p.pipe.CompileBatchCtx(ctx, reqs)
	if len(p.urls) == 0 {
		var buf bytes.Buffer
		if _, err := wire.SaveCache(&buf, p.pipe); err != nil {
			return err
		}
		if _, err := wire.LoadCache(&buf, p.servers[0].Pipeline()); err != nil {
			return err
		}
	}
	off := p.t.off
	p.t.off = true
	defer func() { p.t.off = off }()
	for _, k := range keys {
		if _, err := p.probe(-1, encodeRequest(k)); err != nil {
			return err
		}
	}
	return nil
}

// allocPass counts heap allocations of wire decode and encode per call
// over the first requests of the plan.
func (p *inproc) allocPass(ctx context.Context, bodies [][]byte) (decode, encode float64, err error) {
	n := min(len(bodies), allocPassRequests)
	if n == 0 {
		return 0, 0, nil
	}
	var ms runtime.MemStats
	var dec, enc uint64
	for e := range n {
		var req wire.CompileRequest
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		err := wire.DecodeStrict(bytes.NewReader(bodies[e]), &req)
		runtime.ReadMemStats(&ms)
		dec += ms.Mallocs - before
		if err != nil {
			return 0, 0, err
		}

		preq, err := resolve(&req)
		if err != nil {
			return 0, 0, err
		}
		res, cerr := p.pipe.CompileCtx(ctx, preq)
		runtime.ReadMemStats(&ms)
		before = ms.Mallocs
		encodeResult(res, cerr)
		runtime.ReadMemStats(&ms)
		enc += ms.Mallocs - before
	}
	return float64(dec) / float64(n), float64(enc) / float64(n), nil
}

// peerFetches times cluster.FetchCacheEntry against each replica for
// entries it holds.
func (p *inproc) peerFetches(ctx context.Context) {
	t := p.t
	for i, srv := range p.servers {
		entries := srv.Pipeline().Export()
		for _, e := range entries[:min(len(entries), peerFetchKeys)] {
			s := t.begin("cluster.peer_fetch", -1, -1)
			_, err := cluster.FetchCacheEntry(ctx, http.DefaultClient, p.urls[i], e.Key)
			t.end(s)
			if err != nil {
				t.note(s, "fail")
			}
		}
	}
}

package main

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// outcome is one settled request of a timed phase.
type outcome struct {
	key int
	// seq is the request's place in the plan.
	seq int
	// lag is how long the client took to send after its previous
	// answer settled.
	lag time.Duration
	// latency runs from the send to the settled answer.
	latency time.Duration
	// at is when the answer settled, since the timed phase began.
	at time.Duration
	// sum is the digest of a successful answer's canonical form; res
	// is the answer itself, kept only for the first success of each
	// key so the generator's heap stays small.
	sum [32]byte
	res *wire.Result
	// code is "" on success, else the wire error code, or
	// codeTransport when no wire answer arrived.
	code    string
	message string
}

// codeTransport marks a request that got no wire answer at all.
const codeTransport = "transport"

// requestTimeout bounds one exchange; far above any compile.
const requestTimeout = time.Minute

// generator is the load generator: one process-wide client whose
// transport holds at most nproc connections, driven by nproc workers.
type generator struct {
	cl      *client.Client
	tr      *http.Transport
	workers int
	// kept marks the keys whose first successful answer is retained.
	kept sync.Map
}

func newGenerator(url string, nproc int) (*generator, error) {
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, IdleConnTimeout: time.Minute}
	// One attempt: a failure is a failure to count, not to retry away.
	cl, err := client.New(client.Config{
		Endpoints: []string{url},
		HTTP:      &http.Client{Transport: tr},
		Attempts:  1,
	})
	if err != nil {
		return nil, err
	}
	return &generator{cl: cl, tr: tr, workers: nproc}, nil
}

// close drops the generator's idle connections.
func (g *generator) close() { g.tr.CloseIdleConnections() }

// settled is one request's answer.
type settled struct {
	res     *wire.Result
	code    string
	message string
}

func settle(res *wire.Result, err error) settled {
	var werr *wire.Error
	switch {
	case err == nil && res != nil:
		return settled{res: res}
	case err == nil:
		return settled{code: wire.CodeInternal, message: "200 without a result"}
	case errors.As(err, &werr):
		return settled{code: werr.Code, message: werr.Message}
	default:
		return settled{code: codeTransport, message: err.Error()}
	}
}

// send runs one compile request through internal/client.
func (g *generator) send(ctx context.Context, k key) settled {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req := k.request()
	return settle(g.cl.Compile(ctx, &req))
}

// record appends a request's outcome.
func (g *generator) record(outs []outcome, k, seq int, at, lag, latency time.Duration, s settled) []outcome {
	o := outcome{key: k, seq: seq, at: at, lag: lag, latency: latency, code: s.code, message: s.message}
	if s.res != nil {
		o.sum = digest(s.res)
		if _, seen := g.kept.LoadOrStore(k, true); !seen {
			o.res = s.res
		}
	}
	return append(outs, o)
}

// merge flattens per-worker outcomes into plan order.
func merge(parts [][]outcome) []outcome {
	var outs []outcome
	for _, p := range parts {
		outs = append(outs, p...)
	}
	sort.Slice(outs, func(a, b int) bool { return outs[a].seq < outs[b].seq })
	return outs
}

// runClosed sends the plan's keys in order from g.workers clients,
// each sending its next request as soon as its previous one answered,
// until d has passed and at least minKeys have settled.  It returns
// the outcomes and the phase's elapsed time.
func (g *generator) runClosed(ctx context.Context, keys []key, plan []int, d time.Duration, minKeys int) ([]outcome, time.Duration) {
	start := time.Now()
	var next, done atomic.Int64
	parts := make([][]outcome, g.workers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for ctx.Err() == nil && (time.Since(start) < d || done.Load() < int64(minKeys)) {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					return
				}
				sent := time.Now()
				s := g.send(ctx, keys[plan[i]])
				answered := time.Now()
				parts[w] = g.record(parts[w], plan[i], i, answered.Sub(start), sent.Sub(prev), answered.Sub(sent), s)
				prev = answered
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return merge(parts), time.Since(start)
}

// warm sends every key once from g.workers clients; a key that the
// daemons answer at all is warm, a transport failure aborts set-up.
func (g *generator) warm(ctx context.Context, keys []key) error {
	var next atomic.Int64
	errs := make([]error, g.workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				if s := g.send(ctx, keys[i]); s.code == codeTransport {
					errs[w] = errors.New("warm-up: " + s.message)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

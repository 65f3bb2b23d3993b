package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/corpus"
	"repro/internal/loadgen"
	"repro/internal/wire"
)

// key is one distinct (loop, machine) compile request: the unit the
// output check groups responses by and the ipc metric sums over.
type key struct {
	loop     *corpus.Loop
	machine  string
	strategy string
}

// name spells the key the way failure listings print it.
func (k key) name() string { return k.loop.Graph.Name + "@" + k.machine }

// request is the wire request every send of the key carries: the loop
// inline, the machine by Table 1 name, the unroll policy by name.
func (k key) request() wire.CompileRequest {
	return wire.CompileRequest{
		V:          wire.Version,
		Loop:       k.loop,
		MachineRef: k.machine,
		Options:    &wire.Options{Strategy: k.strategy},
	}
}

// workload is everything a run needs, derived from the seed alone.
type workload struct {
	name string
	keys []key
	// warm are the keys the set-up warm-up pass sends; they may be
	// keys of the timed phase (hit_inline) or their own (miss).
	warm []key

	// plan is the timed phase, a closed loop: the clients send its
	// keys, by index, in order until runFor has passed and at least
	// minKeys have settled (or the plan runs out).
	plan    []int
	runFor  time.Duration
	minKeys int

	// replicas is the schedd count; above one a schedrouter fronts
	// them and they federate their caches with -peers.
	replicas   int
	cacheBytes int64
	// traceRequests caps the in-process traced replay.
	traceRequests int
}

// Corpus shape shared by every workload: the load harness's default
// synthesis knobs at the 28–48 node size of the witness corpus.
func spec(seed uint64, count int, prefix string) loadgen.Spec {
	return loadgen.Spec{
		Count:             count,
		MinNodes:          28,
		MaxNodes:          48,
		RecurrenceDensity: 0.25,
		ExtraEdgeDensity:  0.5,
		ClusterAffinity:   0.6,
		Seed:              seed,
		Prefix:            prefix,
	}
}

const (
	machine4 = "4-cluster/B1/L1"

	// hitKeys is the hit_inline working set, warmed during set-up.
	hitKeys = 128
	// hitPlanPerSecond bounds hit_inline's plan: several times the
	// closed-loop hit capacity of a 2-vCPU host (1300–4000 req/s), so
	// the plan outlasts the run.
	hitPlanPerSecond = 20000
	// missMin is the least number of distinct loops miss_portfolio
	// compiles in its timed phase, so at least 10 lie beyond p99.
	missMin = 1000
	// missCorpus bounds the distinct loops a miss run can draw: well
	// above the 40–100 loops/s a 2-vCPU host compiles.
	missCorpus = 10000
	// missWarm is the number of loops miss_portfolio's set-up compiles.
	missWarm = 16
	// missReplicas is the shard count miss_portfolio compiles on.
	missReplicas = 3
	// hitCacheBytes holds the whole hit working set and more.
	hitCacheBytes = 64 << 20
	// missCacheBytes is each shard's budget: it fills within the
	// first few hundred loops of a miss run (nothing is asked twice),
	// so the daemons' peak memory does not grow with how many loops
	// the run got through.
	missCacheBytes = 4 << 20
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"hit_inline", "miss_portfolio"}

// buildWorkload derives a workload from its name, seed and run length.
func buildWorkload(name string, seed uint64, seconds int) (*workload, error) {
	total := time.Duration(seconds) * time.Second
	rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(len(name))))

	switch name {
	case "hit_inline":
		loops, err := spec(seed, hitKeys, "synth").Generate()
		if err != nil {
			return nil, err
		}
		w := &workload{name: name, replicas: 1, cacheBytes: hitCacheBytes, traceRequests: 3000, runFor: total}
		for _, l := range loops {
			w.keys = append(w.keys, key{l, machine4, "portfolio"})
		}
		w.warm = w.keys
		w.plan = make([]int, hitPlanPerSecond*seconds)
		for i := range w.plan {
			w.plan[i] = rng.Intn(len(w.keys))
		}
		return w, nil

	case "miss_portfolio":
		loops, err := spec(seed, missCorpus, "synth").Generate()
		if err != nil {
			return nil, err
		}
		// The warm-up loops only bring the daemons' code paths up to
		// speed; drawing them from a fixed seed keeps set-up time a
		// property of the program, not of which loops a seed drew.
		warm, err := spec(0, missWarm, "warmup").Generate()
		if err != nil {
			return nil, err
		}
		w := &workload{name: name, replicas: missReplicas, cacheBytes: missCacheBytes, traceRequests: 120,
			runFor: total, minKeys: missMin}
		for i, l := range loops {
			w.keys = append(w.keys, key{l, machine4, "portfolio"})
			w.plan = append(w.plan, i)
		}
		for _, l := range warm {
			w.warm = append(w.warm, key{l, machine4, "portfolio"})
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

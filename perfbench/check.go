package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/vliwsim"
	"repro/internal/wire"
)

// transient reports whether a failure code says nothing about the key
// itself (load, deadlines, a lost connection), so the same key may
// answer differently another time.
func transient(code string) bool {
	switch code {
	case wire.CodeOverCapacity, wire.CodeDeadlineExceeded, wire.CodeEngineQuarantined,
		wire.CodeDraining, wire.CodeEnginePanic, wire.CodeInternal, codeTransport:
		return true
	}
	return false
}

// digest is the identity of an answer for the repeat-consistency
// check: the whole result, minus the telemetry that legitimately
// differs between two compiles of one key — wall times, and the
// outcomes of portfolio candidates that lost a race (whether a loser
// was cancelled or finished depends on timing; the winner does not).
func digest(r *wire.Result) [32]byte {
	c := *r
	if r.Stages != nil {
		st := *r.Stages
		st.TotalNS = 0
		st.Candidates = nil
		st.Stages = make([]wire.StageTiming, len(r.Stages.Stages))
		for i, s := range r.Stages.Stages {
			st.Stages[i] = wire.StageTiming{Name: s.Name, Calls: s.Calls}
		}
		c.Stages = &st
	}
	b, err := json.Marshal(&c)
	if err != nil {
		panic(err) // a decoded wire.Result always re-encodes
	}
	return sha256.Sum256(b)
}

// keyVerdict is what the check concluded about one distinct key.
type keyVerdict struct {
	key int
	// res is the key's schedule; nil when it never got one.
	res *wire.Result
	// code and cause describe a key that only failed; cause is set
	// for unschedulable keys.
	code, cause string
	// ops and cycles are the key's share of the ipc sums: iterations
	// times operations, and the simulated cycles (or the sequential
	// charge for a key with no schedule).
	ops, cycles int64
}

// checked is the output check's result.
type checked struct {
	verdicts   []keyVerdict
	violations []string
}

// ipc is Σ operations / Σ cycles over the keys that got a schedule.
func (c *checked) ipc() float64 {
	var ops, cycles int64
	for _, v := range c.verdicts {
		if v.res != nil {
			ops += v.ops
			cycles += v.cycles
		}
	}
	return ratio(float64(ops), float64(cycles))
}

// ipcCharged is Σ operations / Σ cycles over every key that got a
// deterministic answer, a key with no schedule charged its trip count
// times sched.SequentialBound.
func (c *checked) ipcCharged() float64 {
	var ops, cycles int64
	for _, v := range c.verdicts {
		ops += v.ops
		cycles += v.cycles
	}
	return ratio(float64(ops), float64(cycles))
}

// failing lists the keys that got no schedule, by name.
func (c *checked) failing(keys []key) []string {
	var out []string
	for _, v := range c.verdicts {
		if v.res == nil {
			desc := v.code
			if v.cause != "" {
				desc += ", cause " + v.cause
			}
			out = append(out, fmt.Sprintf("%s (%s)", keys[v.key].name(), desc))
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// checkOutputs verifies every answer of a run:
//
//   - every successful schedule is rebuilt with wire.Result.Core (on
//     the unrolled graph when its factor is above 1) and executed by
//     vliwsim.Verify at the loop's trip count;
//   - repeats of one key, from any replica, carry identical schedules;
//   - a key that failed deterministically failed the same way every
//     time and never also succeeded;
//   - no answer carries an error code a well-formed request must not
//     get.
//
// The simulated cycle counts feed the ipc metric.
func checkOutputs(keys []key, outs []outcome, workers int) *checked {
	c := &checked{}
	byKey := map[int][]outcome{}
	for _, o := range outs {
		byKey[o.key] = append(byKey[o.key], o)
	}
	ids := make([]int, 0, len(byKey))
	for k := range byKey {
		ids = append(ids, k)
	}
	sort.Ints(ids)

	for _, k := range ids {
		v := keyVerdict{key: k}
		var first [32]byte
		scheduled := false
		for _, o := range byKey[k] {
			switch {
			case o.code == "":
				sum := o.sum
				if o.res != nil {
					sum = digest(o.res)
					v.res = o.res
				}
				if !scheduled {
					scheduled, first = true, sum
				} else if sum != first {
					c.violations = append(c.violations, fmt.Sprintf("%s: repeats answered different schedules", keys[k].name()))
				}
			case transient(o.code):
			case o.code == wire.CodeUnschedulable:
				cause := causeOf(o.message)
				if v.code != "" && v.cause != cause {
					c.violations = append(c.violations, fmt.Sprintf("%s: unschedulable with causes %s and %s", keys[k].name(), v.cause, cause))
				}
				v.code, v.cause = o.code, cause
			default:
				c.violations = append(c.violations, fmt.Sprintf("%s: %s: %s", keys[k].name(), o.code, o.message))
			}
		}
		if scheduled && v.res == nil {
			c.violations = append(c.violations, fmt.Sprintf("%s: no answer retained", keys[k].name()))
		}
		if scheduled && v.code != "" {
			c.violations = append(c.violations, fmt.Sprintf("%s: both scheduled and %s", keys[k].name(), v.code))
		}
		if v.res != nil || v.code != "" {
			c.verdicts = append(c.verdicts, v)
		}
	}

	// Simulate in parallel; each verdict is written by one worker.
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := simulate(keys, &c.verdicts[i]); err != nil {
					mu.Lock()
					c.violations = append(c.violations, fmt.Sprintf("%s: %v", keys[c.verdicts[i].key].name(), err))
					mu.Unlock()
				}
			}
		}()
	}
	for i := range c.verdicts {
		next <- i
	}
	close(next)
	wg.Wait()
	sort.Strings(c.violations)
	return c
}

// simulate fills one verdict's ops and cycles: the schedule rebuilt
// and verified by execution, or the sequential charge for a key that
// has none.
func simulate(keys []key, v *keyVerdict) error {
	k := keys[v.key]
	cfg, ok := machine.ConfigByName(k.machine)
	if !ok {
		return fmt.Errorf("unknown machine %q", k.machine)
	}
	trip := k.loop.Iters
	v.ops = int64(trip) * int64(k.loop.Graph.NumNodes())
	if v.res == nil {
		v.cycles = int64(trip) * int64(sched.SequentialBound(k.loop.Graph, &cfg))
		return nil
	}
	g := k.loop.Graph
	if v.res.Factor > 1 {
		g = g.Unroll(v.res.Factor)
	}
	res, err := v.res.Core(g, cfg)
	if err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	kernelIters := (trip + res.Factor - 1) / res.Factor
	if err := vliwsim.Verify(res.Schedule, kernelIters); err != nil {
		return err
	}
	// vliwsim.Run, which Verify executes, reports exactly these cycles.
	v.cycles = int64(res.Schedule.Cycles(kernelIters))
	return nil
}

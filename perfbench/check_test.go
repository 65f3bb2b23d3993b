package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/wire"
)

func TestIPCChargesUnscheduledKeys(t *testing.T) {
	c := &checked{verdicts: []keyVerdict{
		{res: &wire.Result{}, ops: 400, cycles: 100},
		{res: &wire.Result{}, ops: 200, cycles: 100},
		{code: wire.CodeUnschedulable, cause: "reg", ops: 100, cycles: 800},
	}}
	if got := c.ipc(); got != 3 {
		t.Errorf("ipc over scheduled keys %v, want 600/200 = 3", got)
	}
	if got, want := c.ipcCharged(), 700.0/1000; got != want {
		t.Errorf("charged ipc %v, want %v", got, want)
	}

	loops, err := spec(5, 1, "t").Generate()
	if err != nil {
		t.Fatal(err)
	}
	keys := []key{{loops[0], machine4, "portfolio"}}
	v := keyVerdict{code: wire.CodeUnschedulable}
	if err := simulate(keys, &v); err != nil {
		t.Fatal(err)
	}
	cfg, _ := machine.ConfigByName(machine4)
	l := loops[0]
	if want := int64(l.Iters * sched.SequentialBound(l.Graph, &cfg)); v.cycles != want {
		t.Errorf("unscheduled key charged %d cycles, want trip x SequentialBound = %d", v.cycles, want)
	}
	if want := int64(l.Iters * l.Graph.NumNodes()); v.ops != want {
		t.Errorf("unscheduled key has %d ops, want %d", v.ops, want)
	}
}

// compiled answers every key the way the daemon would: twice each, as
// wire results.
func compiled(t *testing.T, n int) ([]key, []outcome) {
	t.Helper()
	loops, err := spec(3, n, "t").Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := machine.ConfigByName(machine4)
	var keys []key
	var outs []outcome
	for i, l := range loops {
		keys = append(keys, key{l, machine4, "portfolio"})
		res, err := core.Compile(l.Graph, &cfg, &core.Options{Strategy: core.Portfolio})
		for range 2 {
			if err != nil {
				outs = append(outs, outcome{key: i, code: wire.CodeUnschedulable, message: err.Error()})
			} else {
				outs = append(outs, outcome{key: i, res: wire.FromResult(res)})
			}
		}
	}
	return keys, outs
}

func TestCheckOutputsSimulatesSchedules(t *testing.T) {
	keys, outs := compiled(t, 6)
	c := checkOutputs(keys, outs, 2)
	if len(c.violations) > 0 {
		t.Fatalf("violations on honest answers: %v", c.violations)
	}
	if len(c.verdicts) != len(keys) {
		t.Fatalf("%d verdicts for %d keys", len(c.verdicts), len(keys))
	}
	for _, v := range c.verdicts {
		if v.res == nil {
			continue
		}
		k := keys[v.key]
		kernel := (k.loop.Iters + v.res.Factor - 1) / v.res.Factor
		if want := int64((kernel + v.res.StageCount - 1) * v.res.II); v.cycles != want {
			t.Errorf("%s: %d cycles, want (kernel iterations + SC - 1) x II = %d", k.name(), v.cycles, want)
		}
	}
	if c.ipc() <= 0 {
		t.Errorf("ipc %v", c.ipc())
	}
}

func TestCheckOutputsCatchesBadSchedules(t *testing.T) {
	keys, outs := compiled(t, 4)
	first := -1
	for i, o := range outs {
		if o.res != nil && len(o.res.Placements) > 1 {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("no scheduled key to tamper with")
	}

	// A repeat that answers a different schedule.
	diverged := append([]outcome(nil), outs...)
	r := *diverged[first+1].res
	r.II++
	diverged[first+1].res = &r
	if c := checkOutputs(keys, diverged, 1); !anyContains(c.violations, "repeats answered different schedules") {
		t.Errorf("diverging repeat not caught: %v", c.violations)
	}

	// A schedule that breaks a dependence: every answer agrees, so only
	// the rebuild or the simulation can catch it.
	broken := append([]outcome(nil), outs...)
	bad := *broken[first].res
	bad.Placements = append([]wire.Placement(nil), bad.Placements...)
	for i := range bad.Placements {
		bad.Placements[i].Cycle = 0
	}
	broken[first].res, broken[first+1].res = &bad, &bad
	if c := checkOutputs(keys, broken, 1); len(c.violations) == 0 {
		t.Error("a schedule with every operation in cycle 0 passed the check")
	}

	// A key that is both scheduled and unschedulable.
	mixed := append([]outcome(nil), outs...)
	mixed[first+1] = outcome{key: mixed[first].key, code: wire.CodeUnschedulable, message: "causes: map[reg:1]"}
	if c := checkOutputs(keys, mixed, 1); !anyContains(c.violations, "both scheduled and") {
		t.Errorf("inconsistent key not caught: %v", c.violations)
	}
}

func TestDigestIgnoresTimingOnly(t *testing.T) {
	base := &wire.Result{II: 4, Factor: 1, Stages: &wire.Stages{
		Scheduler: "bsa", Policy: "portfolio", Winner: "no_unroll", TotalNS: 10, Attempts: 2,
		Stages:     []wire.StageTiming{{Name: "schedule", NS: 5, Calls: 1}},
		Candidates: []wire.CandidateOutcome{{Strategy: "unroll_all", Error: "context canceled"}},
	}}
	timing := *base
	st := *base.Stages
	st.TotalNS, st.Stages = 99, []wire.StageTiming{{Name: "schedule", NS: 50, Calls: 1}}
	st.Candidates = []wire.CandidateOutcome{{Strategy: "unroll_all", IterationII: 2}}
	timing.Stages = &st
	if digest(base) != digest(&timing) {
		t.Error("results differing only in timing telemetry compare unequal")
	}
	winner := *base
	st2 := *base.Stages
	st2.Winner = "selective"
	winner.Stages = &st2
	if digest(base) == digest(&winner) {
		t.Error("results with different winners compare equal")
	}
}

func anyContains(xs []string, sub string) bool {
	for _, x := range xs {
		if strings.Contains(x, sub) {
			return true
		}
	}
	return false
}

package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/loadgen"
)

// perLayerValues computes the traced run's metrics: span statistics
// from the in-process replay, /v1/stats deltas and response telemetry
// from the daemon run before it.
func perLayerValues(m *measurement, chk *checked, r *replayed) map[string]float64 {
	v := map[string]float64{}
	spans := r.spans
	kids := children(spans)

	v["wire.decode_us"] = median(durations(spans, "wire.decode", "*"))
	v["ddg.fingerprint_us"] = median(durations(spans, "ddg.fingerprint", "*"))
	v["pipeline.hit_us"] = median(durations(spans, "pipeline.compile", "hit"))
	v["wire.encode_us"] = median(durations(spans, "wire.encode", "*"))
	v["wire.decode_allocs"] = r.decodeAllocs
	v["wire.encode_allocs"] = r.encodeAllocs
	v["wire.request_kb"] = mean(r.requestBytes) / 1024
	v["wire.response_kb"] = mean(r.responseBytes) / 1024

	// The service handler's spans: the front door itself for one
	// daemon, the replica's handler below the router for a cluster.
	root := map[int]int{}    // request -> request root span
	handler := map[int]int{} // request -> first service.handler span
	front := map[int]int{}   // request -> front-door span
	for i, s := range spans {
		if s.Req < 0 {
			continue
		}
		switch {
		case s.Name == "request":
			root[s.Req] = i
		case s.Name == "cluster.router":
			front[s.Req] = i
		case s.Name == "service.handler":
			if _, seen := handler[s.Req]; !seen {
				handler[s.Req] = i
			}
			if s.Parent < 0 {
				front[s.Req] = i
			}
		}
	}
	var hitUS, missMS, selfUS, hopUS []float64
	for e, h := range handler {
		d := float64(spans[h].dur()) / float64(time.Microsecond)
		if spans[front[e]].Note == "hit" {
			hitUS = append(hitUS, d)
			if rt, ok := root[e]; ok {
				var layers time.Duration
				for _, k := range kids[rt] {
					layers += spans[k].dur()
				}
				selfUS = append(selfUS, d-float64(layers)/float64(time.Microsecond))
			}
		} else {
			missMS = append(missMS, d/1000)
		}
	}
	for _, f := range front {
		if spans[f].Name == "cluster.router" {
			hopUS = append(hopUS, float64(selfTime(spans, kids[f], f))/float64(time.Microsecond))
		}
	}
	v["service.handler_hit_us"] = median(hitUS)
	v["service.handler_miss_ms"] = median(missMS)
	v["service.self_us"] = median(selfUS)
	v["cluster.router_hop_us"] = median(hopUS)
	v["cluster.peer_fetch_us"] = median(durations(spans, "cluster.peer_fetch", ""))

	for _, name := range candidates {
		v["engine.candidate_ms."+name] = median(durations(spans, "engine.candidate."+name, "*")) / 1000
	}
	v["sched.schedule_ms"] = median(durations(spans, "sched.schedule", "*")) / 1000
	v["trace.overhead_us"] = float64(r.overhead) / float64(time.Microsecond)
	v["trace.overhead_pct"] = r.overheadPct

	statsDeltas(v, m)
	telemetry(v, chk)

	v["sched.ipc_charged"] = chk.ipcCharged()
	v["client.lag_ms"] = m.lagMS()
	// Transport: what the client waited from its send beyond the
	// front door's handler time for the same request.
	var transportUS []float64
	for _, o := range m.outs {
		f, ok := front[o.seq]
		if !ok {
			continue
		}
		transportUS = append(transportUS, float64(o.latency-spans[f].dur())/float64(time.Microsecond))
	}
	v["client.transport_us"] = median(transportUS)
	return v
}

// hitRate is the replicas' summed cache hits over lookups during the
// timed phase.
func (m *measurement) hitRate() float64 {
	var hits, misses int64
	for i := range m.after {
		hits += m.after[i].Pipeline.Hits - m.before[i].Pipeline.Hits
		misses += m.after[i].Pipeline.Misses - m.before[i].Pipeline.Misses
	}
	return ratio(float64(hits), float64(hits+misses))
}

// statsDeltas fills the /v1/stats counters: what the replicas did
// during the timed phase, summed.
func statsDeltas(v map[string]float64, m *measurement) {
	var comps int64
	var perReplica []float64
	for i := range m.after {
		a, b := m.after[i], m.before[i]
		v["service.rejected_429"] += float64(a.Service.Rejected - b.Service.Rejected)
		v["service.deadline_504"] += float64(a.Service.Deadlines - b.Service.Deadlines)
		v["pipeline.evictions"] += float64(a.Pipeline.Evictions - b.Pipeline.Evictions)
		v["pipeline.peer_hits"] += float64(a.Pipeline.PeerHits - b.Pipeline.PeerHits)
		v["pipeline.dedup_joins"] += float64(a.Pipeline.DedupJoins - b.Pipeline.DedupJoins)
		c := a.Pipeline.Compilations - b.Pipeline.Compilations
		comps += c
		perReplica = append(perReplica, float64(c))
	}
	v["pipeline.hit_rate"] = m.hitRate()
	v["pipeline.compilations"] = float64(comps)
	// Shard skew: the busiest replica's compilations over the mean.
	sort.Float64s(perReplica)
	v["cluster.shard_skew"] = ratio(perReplica[len(perReplica)-1], mean(perReplica))
}

// telemetry fills the engine and scheduler metrics from the stage
// telemetry the responses carry, one sample per distinct key.
func telemetry(v map[string]float64, chk *checked) {
	for _, name := range []string{"sched.no_schedule", "sched.cause.reg", "sched.cause.fu", "sched.cause.bus"} {
		v[name] = 0
	}
	var compileMS, attempts, iiOverMin []float64
	stageMS := map[string][]float64{}
	var runs, wins, fails float64
	for _, kv := range chk.verdicts {
		if kv.res == nil {
			v["sched.no_schedule"]++
			v["sched.cause."+kv.cause]++
			continue
		}
		iiOverMin = append(iiOverMin, ratio(float64(kv.res.II), float64(kv.res.MinII)))
		st := kv.res.Stages
		if st == nil {
			continue
		}
		compileMS = append(compileMS, float64(st.TotalNS)/1e6)
		attempts = append(attempts, float64(st.Attempts))
		for _, s := range st.Stages {
			stageMS[s.Name] = append(stageMS[s.Name], float64(s.NS)/1e6)
		}
		for _, c := range st.Candidates {
			if c.Strategy != "unroll_all" {
				continue
			}
			runs++
			if c.Won {
				wins++
			}
			if c.Error != "" && !strings.Contains(c.Error, "context canceled") {
				fails++
			}
		}
	}
	sort.Float64s(compileMS)
	v["engine.compile_ms.p50"] = loadgen.Percentile(compileMS, 0.5)
	v["engine.compile_ms.p99"] = loadgen.Percentile(compileMS, 0.99)
	for _, name := range []string{"analyze", "unroll", "schedule", "validate"} {
		v["engine.stage_ms."+name] = mean(stageMS[name])
	}
	v["engine.candidate_useful.unroll_all"] = ratio(wins, runs)
	v["engine.candidate_fail.unroll_all"] = fails
	v["sched.attempts_per_compile"] = mean(attempts)
	v["sched.ii_over_min"] = mean(iiOverMin)
}

package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed swings by more than the regression bounds: on a
// shared 2-vCPU virtual machine the same run of the same commit took
// 2.5 times as much CPU per request in one hour as in the next.  So
// while the timed phase runs, the benchmark also times a fixed
// computation of its own, the host probe, and scales every timed
// end-to-end metric to a reference host on which one probe round
// takes probeRefMS of CPU.  The probe calls none of the program's
// code, and it reads its thread's CPU time rather than the clock, so
// how much of the machine the program's own threads take does not
// move it.

// probeRefMS is the CPU time of one probe round on the reference host
// the timed metrics are scaled to.
const probeRefMS = 5.0

// probeEvery is the period of the probe rounds: one round costs a few
// percent of one CPU.
const probeEvery = 200 * time.Millisecond

// probeRecord shapes the probe document like a small request body, so
// the probe leans on the same allocator, reflection and memory traffic
// as the service's JSON path.
type probeRecord struct {
	Name   string    `json:"name"`
	Op     string    `json:"op"`
	Index  int       `json:"index"`
	Weight float64   `json:"weight"`
	Deps   []int     `json:"deps"`
	Tags   []string  `json:"tags"`
	Costs  []float64 `json:"costs"`
}

// probeBody is the encoded probe document, built once.
var probeBody = func() []byte {
	recs := make([]probeRecord, 2000)
	for i := range recs {
		recs[i] = probeRecord{
			Name:   fmt.Sprintf("n%d", i),
			Op:     []string{"load", "store", "fadd", "fmul", "iadd"}[i%5],
			Index:  i,
			Weight: float64(i%97) / 7,
			Deps:   []int{i / 2, i / 3, (i * 7) % 2000},
			Tags:   []string{"c0", "c1"}[:1+i%2],
			Costs:  []float64{1, float64(i % 5), 0.5},
		}
	}
	b, err := json.Marshal(recs)
	if err != nil {
		panic(err) // a fixed document always encodes
	}
	return b
}()

// threadCPU is the calling thread's CPU time
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// hostProbe runs probe rounds every probeEvery on a thread of its own
// until finish: each round strictly decodes and re-encodes the probe
// document and records the CPU time it took, in ms.
type hostProbe struct {
	rounds []float64
	stop   chan struct{}
	done   chan struct{}
}

func startHostProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			start := threadCPU()
			var recs []probeRecord
			if err := json.Unmarshal(probeBody, &recs); err != nil {
				panic(err) // the probe's own document always decodes
			}
			if _, err := json.Marshal(recs); err != nil {
				panic(err)
			}
			p.rounds = append(p.rounds, float64(threadCPU()-start)/float64(time.Millisecond))
		}
	}()
	return p
}

// finish stops the probe and returns the first quartile of its
// rounds: like the timed metrics, the fast side, since a collection
// of the benchmark's own heap that lands in a round only adds to it.
func (p *hostProbe) finish() float64 {
	close(p.stop)
	<-p.done
	return quantile(p.rounds, 0.25)
}

// hostScale is the factor that takes a time measured on a host whose
// probe round took probeMS to the reference host; a rate is divided
// by it.
func hostScale(probeMS float64) float64 { return probeRefMS / probeMS }

// hostScaled names the timed end-to-end metrics, each marked true if
// it is a rate.
var hostScaled = map[string]bool{
	"p50_ms":               false,
	"p99_ms":               false,
	"capacity_qps":         true,
	"server_cpu_ms_per_ok": false,
	"setup_s":              false,
}

// scaleToHost rescales the timed metrics in v to the reference host.
func scaleToHost(v map[string]float64, probeMS float64) {
	s := hostScale(probeMS)
	for name, rate := range hostScaled {
		if rate {
			v[name] /= s
		} else {
			v[name] *= s
		}
	}
}

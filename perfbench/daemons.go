package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one launched schedd or schedrouter process.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{}
}

// fleet is the daemon topology of one set-up: the schedd replicas and,
// with more than one, the schedrouter in front of them.
type fleet struct {
	replicas []*daemon
	router   *daemon
}

// front is the URL the generator sends to.
func (f *fleet) front() string {
	if f.router != nil {
		return f.router.url
	}
	return f.replicas[0].url
}

// all lists every process, router first.
func (f *fleet) all() []*daemon {
	var ds []*daemon
	if f.router != nil {
		ds = append(ds, f.router)
	}
	return append(ds, f.replicas...)
}

// freePorts reserves n distinct loopback ports by binding and
// releasing them.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// launch starts one process with its output in logDir.
func launch(name, bin, logDir string, args ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

// startFleet launches the workload's daemons and waits until every
// /readyz answers 200.
func startFleet(w *workload, binDir, logDir string) (*fleet, error) {
	ports, err := freePorts(w.replicas + 1)
	if err != nil {
		return nil, err
	}
	urls := make([]string, w.replicas)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", ports[i])
	}
	f := &fleet{}
	for i, u := range urls {
		args := []string{"-addr", strings.TrimPrefix(u, "http://"),
			"-cache-bytes", strconv.FormatInt(w.cacheBytes, 10), "-grace", "5s"}
		if w.replicas > 1 {
			args = append(args, "-peers", strings.Join(urls, ","), "-peer-self", u)
		}
		d, err := launch(fmt.Sprintf("schedd%d", i), filepath.Join(binDir, "schedd"), logDir, args...)
		if err != nil {
			f.stop()
			return nil, err
		}
		d.url = u
		f.replicas = append(f.replicas, d)
	}
	// The router probes its replicas once at boot and then every two
	// seconds, so it starts only once they answer.
	for _, d := range f.replicas {
		if err := waitReady(d, 30*time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	if w.replicas > 1 {
		var reps []string
		for i, u := range urls {
			reps = append(reps, fmt.Sprintf("s%d=%s", i+1, u))
		}
		addr := fmt.Sprintf("127.0.0.1:%d", ports[w.replicas])
		d, err := launch("schedrouter", filepath.Join(binDir, "schedrouter"), logDir,
			"-addr", addr, "-replicas", strings.Join(reps, ","), "-grace", "5s")
		if err != nil {
			f.stop()
			return nil, err
		}
		d.url = "http://" + addr
		f.router = d
		if err := waitReady(d, 30*time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// waitReady polls /readyz until it answers 200, the process exits or
// the budget runs out.
func waitReady(d *daemon, within time.Duration) error {
	deadline := time.Now().Add(within)
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before it was ready", d.name)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %v", d.name, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains every process with SIGTERM, router first, and waits for
// each to exit; one that outlives its grace is killed.
func (f *fleet) stop() {
	for _, d := range f.all() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	}
}

// clockTicks is the unit of /proc/<pid>/stat CPU times (USER_HZ,
// fixed at 100 on Linux).
const clockTicks = 100

// cpuTime sums user and system CPU of every process in the fleet.
func (f *fleet) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, d := range f.all() {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name start at field
		// 3 (state); utime and stime are fields 14 and 15.
		s := string(b)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 13 {
			return 0, fmt.Errorf("%s: short /proc stat", d.name)
		}
		for _, fld := range fields[11:13] {
			ticks, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return 0, err
			}
			total += time.Duration(ticks) * time.Second / clockTicks
		}
	}
	return total, nil
}

// peakRSS sums the fleet's VmHWM, in bytes.
func (f *fleet) peakRSS() (int64, error) {
	var total int64
	for _, d := range f.all() {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err != nil {
					return 0, err
				}
				total += kb << 10
				found = true
			}
		}
		if !found {
			return 0, errors.New(d.name + ": no VmHWM in /proc status")
		}
	}
	return total, nil
}

// setUp launches a fleet and runs the warm-up pass, returning the
// fleet and the time from the first exec to the end of the warm-up.
func setUp(ctx context.Context, w *workload, binDir, logDir string, nproc int) (*fleet, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(w, binDir, logDir)
	if err != nil {
		return nil, 0, err
	}
	g, err := newGenerator(f.front(), nproc)
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	defer g.close()
	if err := g.warm(ctx, w.warm); err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

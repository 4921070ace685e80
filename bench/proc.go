package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running qserve child.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string // API address, parsed from qserve's "serving on" line
	opsAddr string // ops address, parsed from its "ops on" line
	stderr  *bytes.Buffer
	done    chan error
	exited  bool // done has been received from
	// bootSeconds is exec → first /healthz "ok".
	bootSeconds float64
	// gomaxprocs and commit are qserve's own account of itself in /healthz.
	gomaxprocs int
	commit     string
}

// startServer launches qserve on loopback ports the kernel picks, reads
// the bound addresses from its stdout and waits for /healthz.
func startServer(bin string, args []string) (*serverProc, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-ops", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stderr: &bytes.Buffer{}, done: make(chan error, 1)}
	cmd.Stderr = p.stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	// The reader goroutine owns Wait: it ends when qserve closes stdout,
	// which is when the process exits.
	addrs := make(chan [2]string, 1)
	go func() {
		var found [2]string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "serving on "); ok {
				found[0], _, _ = strings.Cut(a, " ")
			}
			if a, ok := strings.CutPrefix(line, "ops on "); ok {
				found[1], _, _ = strings.Cut(a, " ")
				addrs <- found
			}
		}
		p.done <- cmd.Wait()
	}()
	select {
	case a := <-addrs:
		p.addr, p.opsAddr = a[0], a[1]
	case err := <-p.done:
		p.exited = true
		return nil, fmt.Errorf("qserve exited during boot: %v\n%s", err, p.stderr.String())
	case <-time.After(120 * time.Second):
		p.kill()
		return nil, fmt.Errorf("qserve did not report its addresses within 120s\n%s", p.stderr.String())
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get("http://" + p.addr + "/healthz")
		if err == nil {
			var h struct {
				Status string `json:"status"`
				Info   struct {
					GOMAXPROCS int    `json:"gomaxprocs"`
					Commit     string `json:"vcs_commit"`
				} `json:"info"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if h.Status == "ok" {
				p.gomaxprocs, p.commit = h.Info.GOMAXPROCS, h.Info.Commit
				break
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("qserve /healthz not ok within 30s (last error: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.bootSeconds = time.Since(start).Seconds()
	return p, nil
}

// stop drains qserve with SIGTERM and waits for it to exit, killing it if
// the drain (and a durable server's final checkpoint) takes over 30 s.
// Stopping a stopped server does nothing.
func (p *serverProc) stop() error {
	if p.exited {
		return nil
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		p.exited = true
		// qserve installs its SIGTERM handler after it starts listening, so
		// a stop right after boot (the discarded set-ups) can still find the
		// default action in place. Dying of our own signal is a clean stop.
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("qserve exit: %v\n%s", err, p.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		p.kill()
		return fmt.Errorf("qserve did not drain within 30s")
	}
}

func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
	p.exited = true
}

// cpuSeconds is the child's user+system CPU so far, from /proc/<pid>/stat.
func (p *serverProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(raw))
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 for every
// architecture Go runs on.
const clockTicksPerSecond = 100

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The comm field may hold spaces and parentheses,
// so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	f := strings.Fields(stat[end+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc stat line %q", stat)
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// peakRSSMiB is the child's VmHWM, from /proc/<pid>/status.
func (p *serverProc) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", p.cmd.Process.Pid)
}

// liveHeapMiB is qserve's heap in use right after a collection. The ops
// port's heap profile runs the collector when asked (gc=1) and, in its text
// form, reads the runtime's memory statistics before it allocates anything
// of its own, so its "# HeapAlloc" line is what survived — unlike resident
// memory it does not depend on when the collector last happened to run.
func (p *serverProc) liveHeapMiB() (float64, error) {
	body, err := httpGetAll("http://" + p.opsAddr + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HeapAlloc = "); ok {
			bytes, err := strconv.ParseFloat(rest, 64)
			return bytes / (1 << 20), err
		}
	}
	return 0, fmt.Errorf("no HeapAlloc line in the heap profile")
}

// opsSnapshot is one scrape of the ops port: every /metrics sample by
// name, plus the runtime block of /debug/vars.
type opsSnapshot struct {
	metrics map[string]float64
	numGC   float64
	allocB  float64 // bytes allocated since start
}

func (p *serverProc) scrape() (opsSnapshot, error) {
	var s opsSnapshot
	body, err := httpGetAll("http://" + p.opsAddr + "/metrics")
	if err != nil {
		return s, err
	}
	if s.metrics, err = parseMetricsText(string(body)); err != nil {
		return s, err
	}
	body, err = httpGetAll("http://" + p.opsAddr + "/debug/vars")
	if err != nil {
		return s, err
	}
	var vars struct {
		Runtime struct {
			NumGC      float64 `json:"num_gc"`
			TotalAlloc float64 `json:"total_alloc"`
		} `json:"runtime"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return s, fmt.Errorf("parsing /debug/vars: %w", err)
	}
	s.numGC, s.allocB = vars.Runtime.NumGC, vars.Runtime.TotalAlloc
	return s, nil
}

func httpGetAll(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// parseMetricsText reads Prometheus text exposition into name → value.
// A sample keeps its label set in the name (`x_bucket{le="1"}`); comment
// and blank lines are skipped; a malformed sample is an error.
func parseMetricsText(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, nil
}

// delta is the growth of one qserve counter between two scrapes. name is
// the Prometheus name without the "qcluster_" prefix.
func delta(before, after opsSnapshot, name string) float64 {
	return after.metrics["qcluster_"+name] - before.metrics["qcluster_"+name]
}

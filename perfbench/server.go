package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"phocus/internal/fleet"
	"phocus/internal/par"
)

// serverProc is one phocus-server child process.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	logf   *os.File
	exited chan struct{}
}

// startServer launches the server on a free loopback port, logging to
// logPath. The child is killed if the benchmark dies first.
func startServer(bin, logPath string, args ...string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, url: "http://" + addr, logf: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// waitReady polls /readyz until it answers 200 (the server answers 503
// until the snapshot warm-fill is done).
func (s *serverProc) waitReady(c *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("phocus-server exited during start-up (log: %s)", s.logf.Name())
		default:
		}
		if resp, err := c.Get(s.url + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("phocus-server not ready after 60s (log: %s)", s.logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it after 15s)
// and closes its log.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.logf.Close()
}

// procPath names a /proc file of process pid (0 for this process).
func procPath(pid int, name string) string {
	if pid > 0 {
		return fmt.Sprintf("/proc/%d/%s", pid, name)
	}
	return "/proc/self/" + name
}

// resetPeakRSS starts a new peak-RSS window for process pid (0 for this
// process): Linux resets VmHWM to the current RSS when "5" is written to
// clear_refs. rss_mb is the peak over the timed ops, not over input
// generation and set-up.
func resetPeakRSS(pid int) error {
	return os.WriteFile(procPath(pid, "clear_refs"), []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	path := procPath(pid, "status")
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// metrics scrapes /metrics and sums every series of each metric name.
func (s *serverProc) metrics(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// Counters the workloads validate themselves with.
const (
	mHits      = "phocus_prepare_cache_hits_total"
	mMisses    = "phocus_prepare_cache_misses_total"
	mEvictions = "phocus_prepare_cache_evictions_total"
	mLoads     = "phocus_snapshot_load_total"
	mWrites    = "phocus_snapshot_write_total"
)

// waitCounter polls /metrics until name reaches want (the server writes
// snapshots back off the request path).
func (s *serverProc) waitCounter(c *http.Client, name string, want float64) (map[string]float64, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := s.metrics(c)
		if err != nil {
			return nil, err
		}
		if m[name] >= want {
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s stuck at %v after 30s, want %v", name, m[name], want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wireAnswer is the part of the /solve response the gate reads.
type wireAnswer struct {
	Fingerprint string        `json:"fingerprint"`
	Retain      []par.PhotoID `json:"retain"`
	Archive     []par.PhotoID `json:"archive"`
	Score       float64       `json:"score"`
	Cost        float64       `json:"cost"`
	Budget      float64       `json:"budget"`
	OnlineBound float64       `json:"online_bound"`
}

func (w *wireAnswer) answer() answer {
	return answer{Retain: w.Retain, Archive: w.Archive, Score: w.Score, Cost: w.Cost, Budget: w.Budget, Bound: w.OnlineBound}
}

// solve sends one POST /solve and reads the whole response. The returned
// duration is the client-side latency: request write through last body byte.
func (s *serverProc) solve(c *http.Client, reqID, tenant string, body []byte, budget float64) ([]byte, time.Duration, error) {
	u := s.url + "/solve?tau=" + strconv.FormatFloat(tau, 'g', -1, 64) +
		"&budget=" + strconv.FormatFloat(budget, 'f', -1, 64)
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(fleet.TenantHeader, tenant)
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, time.Since(t0), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("POST /solve: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, d, nil
}

func decodeAnswer(raw []byte) (*wireAnswer, error) {
	var w wireAnswer
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("decode /solve response: %w", err)
	}
	return &w, nil
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// serverStageMS reads the server's span log and returns, per request ID, the
// summed duration of its pipeline stage spans (decode, sparsify, solve,
// encode) in ms.
func serverStageMS(logPath string) (map[string]float64, error) {
	f, err := os.Open(logPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	stages := map[string]bool{"decode": true, "sparsify": true, "solve": true, "encode": true}
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, " msg=span ") {
			continue
		}
		var name, id string
		var d time.Duration
		for _, field := range strings.Fields(line) {
			k, v, _ := strings.Cut(field, "=")
			switch k {
			case "span":
				name = v
			case "req_id":
				id = v
			case "duration":
				if d, err = time.ParseDuration(v); err != nil {
					return nil, fmt.Errorf("server log: %q: %w", line, err)
				}
			}
		}
		if stages[name] {
			out[id] += ms(d)
		}
	}
	return out, sc.Err()
}

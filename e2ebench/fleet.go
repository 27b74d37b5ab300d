package main

import (
	"bufio"
	"bytes"
	"context"
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
	"unsafe"

	"github.com/chrec/rat/internal/api"
)

// ratd is one ratd process started by the benchmark.
type ratd struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{} // closed when the stdout reader hits EOF
}

// startRatd spawns bin on an ephemeral loopback port with default
// flags plus extra, and returns once it has printed its listen line.
func startRatd(bin string, extra ...string) (*ratd, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ratd: %w", err)
	}
	r := &ratd{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(r.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ratd: listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addr:
		r.url = "http://" + a
		return r, nil
	case <-r.drained:
		cmd.Wait()
		return nil, errors.New("ratd exited before listening")
	case <-time.After(10 * time.Second):
		r.stop()
		return nil, errors.New("ratd did not print its listen line within 10s")
	}
}

// waitReady polls /readyz until it answers 200.
func (r *ratd) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(r.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		sleepFor(200 * time.Microsecond)
	}
	return fmt.Errorf("%s/readyz not ready within 10s", r.url)
}

// stop drains ratd with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 15s.
func (r *ratd) stop() error {
	if r == nil || r.cmd.Process == nil {
		return nil
	}
	if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		r.cmd.Process.Kill()
	}
	select {
	case <-r.drained:
	case <-time.After(15 * time.Second):
		r.cmd.Process.Kill()
		<-r.drained
	}
	return r.cmd.Wait()
}

func (r *ratd) pid() int { return r.cmd.Process.Pid }

// peakRSSMB reads the process's VmHWM from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuSeconds reads the CPU time all threads of process pid have used,
// to the nanosecond, from its POSIX CPU-time clock: the clock id that
// clock_getcpuclockid(3) returns is (^pid)<<3 | 2 on Linux.
// /proc/<pid>/stat counts in 10ms ticks, too coarse for one request.
func cpuSeconds(pid int) (float64, error) {
	var ts syscall.Timespec
	clk := (^pid)<<3 | 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clk), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, errno)
	}
	return float64(ts.Nano()) / 1e9, nil
}

// metricsText is a parsed snapshot of ratd's legacy /metrics listing:
// counters and gauges by name, and count/sum (histograms) or
// count/total_s (timers) under name suffixes.
type metricsText map[string]float64

func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (metricsText, error) {
	body, err := get(ctx, hc, base+"/metrics")
	if err != nil {
		return nil, err
	}
	m := metricsText{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		switch f[0] {
		case "counter", "gauge":
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				m[f[1]] = v
			}
		case "histo", "timer":
			for _, kv := range f[2:] {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "count", "sum":
					if x, err := strconv.ParseFloat(v, 64); err == nil {
						m[f[1]+"."+k] = x
					}
				case "total":
					if d, err := time.ParseDuration(v); err == nil {
						m[f[1]+".total_s"] = d.Seconds()
					}
				}
			}
		}
	}
	return m, nil
}

// delta returns after[name] - before[name].
func (m metricsText) delta(before metricsText, name string) float64 { return m[name] - before[name] }

func scrapeStatus(ctx context.Context, hc *http.Client, base string) (api.Status, error) {
	var st api.Status
	body, err := get(ctx, hc, base+"/v1/status")
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(body, &st)
	return st, err
}

func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return buf.Bytes(), nil
}

// connClient returns an HTTP client pinned to one keep-alive
// connection, so a generator connection is exactly one socket.
func connClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// sleepFor waits d with the kernel's high-resolution timer; the Go
// runtime's own timers round short sleeps up to about a millisecond.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

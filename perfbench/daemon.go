package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"optspeed/internal/telemetry"
)

// daemon is one optspeedd subprocess. Its log goes to a file in the
// run directory, so the generator spends no CPU draining it while the
// window runs.
type daemon struct {
	cmd     *exec.Cmd
	flags   []string
	base    string
	logPath string
	exited  chan struct{}
	waitErr error
}

var listenRE = regexp.MustCompile(`msg="optspeedd listening" addr=(\S+)`)

// startDaemon execs the daemon with flags and returns once its listen
// address is logged. The daemon dies with the benchmark (Pdeathsig).
func startDaemon(bin, logPath string, flags []string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	d := &daemon{flags: flags, logPath: logPath, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, flags...)
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("daemon exited during start-up (%v): %s", d.waitErr, d.logTail())
		default:
		}
		if addr := d.listenAddr(); addr != "" {
			d.base = "http://" + addr
			return d, nil
		}
		time.Sleep(500 * time.Microsecond)
	}
	d.stop()
	return nil, fmt.Errorf("daemon did not report its address in 30s: %s", d.logTail())
}

// logTail is the end of the daemon's log, for error messages: the run
// directory that holds the log is removed when the benchmark exits.
func (d *daemon) logTail() string {
	raw, _ := os.ReadFile(d.logPath)
	if len(raw) > 1024 {
		raw = raw[len(raw)-1024:]
	}
	return strings.TrimSpace(string(raw))
}

func (d *daemon) listenAddr() string {
	f, err := os.Open(d.logPath)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := listenRE.FindSubmatch(sc.Bytes()); m != nil {
			return string(m[1])
		}
	}
	return ""
}

// waitHealthy polls GET /healthz until it answers 200.
func (d *daemon) waitHealthy(hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("daemon %s not healthy in 30s", d.base)
}

// stop sends SIGTERM, waits for a graceful exit, and kills the daemon
// if it has not exited after the drain period.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB reads the daemon's VmHWM, its resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the daemon's GET /metrics page and validates it with the
// repository's strict exposition checker before parsing it.
func (d *daemon) scrape(ctx context.Context, hc *http.Client) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", d.base, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", d.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", d.base, resp.StatusCode)
	}
	return parseExposition(raw)
}

// promSample maps a series ("name" or `name{labels}`) to its value.
type promSample map[string]float64

// parseExposition validates a text exposition page with
// telemetry.CheckExposition and returns its samples.
func parseExposition(raw []byte) (promSample, error) {
	if err := telemetry.CheckExposition(raw); err != nil {
		return nil, fmt.Errorf("malformed exposition: %w", err)
	}
	out := make(promSample)
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %w", line, err)
		}
		out[string(line[:sp])] = v
	}
	return out, nil
}

// sum adds every series of the family name (any labels), excluding the
// histogram's _bucket/_sum/_count children unless asked for by name.
func (p promSample) sum(name string) float64 {
	total := 0.0
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// delta is after minus before for family name, summed over labels.
func delta(before, after promSample, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// runDir makes a fresh private directory for one run's logs and data.
func runDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

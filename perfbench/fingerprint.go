package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostPrint identifies where and on what a report was measured, so
// that figures from two hosts are never mistaken for an A/B.
type hostPrint struct {
	CPUModel          string     `json:"cpu_model"`
	NProc             int        `json:"nproc"`
	GeneratorMaxProcs int        `json:"generator_gomaxprocs"`
	ServerMaxProcs    int        `json:"server_gomaxprocs"`
	GoVersion         string     `json:"go_version"`
	Commit            string     `json:"commit"`
	TreeSHA256        string     `json:"tree_sha256"`
	Workload          string     `json:"workload"`
	Seed              int64      `json:"seed"`
	Seconds           int        `json:"seconds"`
	Clients           int        `json:"clients"`
	DaemonFlags       [][]string `json:"daemon_flags"`
}

func fingerprint(cfg config, w *windowRun) hostPrint {
	return hostPrint{
		CPUModel:          cpuModel(),
		NProc:             runtime.NumCPU(),
		GeneratorMaxProcs: runtime.GOMAXPROCS(0),
		// The daemons run with -workers 0, which sizes the engine pool
		// to the daemon's GOMAXPROCS; the engine exports that size.
		ServerMaxProcs: int(w.serverWorkers),
		GoVersion:      runtime.Version(),
		Commit:         commit(),
		TreeSHA256:     treeDigest(cfg.root),
		Workload:       cfg.workload,
		Seed:           cfg.seed,
		Seconds:        cfg.seconds,
		Clients:        clients,
		DaemonFlags:    w.flags,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes is the first line of /proc/stat: the host's CPU time by
// state, in clock ticks.
type cpuTimes []float64

func readCPUTimes() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var t cpuTimes
	for _, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil
		}
		t = append(t, x)
	}
	return t
}

// stealShare is the share of the CPU time since before that the
// hypervisor gave to other guests (steal, the eighth field; the guest
// fields after it are already counted in user and nice); 0 when
// /proc/stat could not be read.
func (t cpuTimes) stealShare(before cpuTimes) float64 {
	if len(t) < 8 || len(before) != len(t) {
		return 0
	}
	var total float64
	for i := 0; i < 8; i++ {
		total += t[i] - before[i]
	}
	if total <= 0 {
		return 0
	}
	return (t[7] - before[7]) / total
}

// commit is the VCS revision the binary was built from, when the
// checkout was a git work tree; tree_sha256 identifies the sources
// either way.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// treeDigest hashes the path and content of every Go source and module
// file under root, skipping build output and hidden directories.
func treeDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

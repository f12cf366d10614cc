package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// runMeta identifies the machine and build a result was recorded on.
// Results recorded on different machines are never compared.
type runMeta struct {
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpuModel"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	WALFS      string `json:"walFilesystem"`
}

func collectMeta(seed int64, walDir string) runMeta {
	return runMeta{
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		WALFS:      fsType(walDir),
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
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// commit returns the HEAD commit when the working directory is the top
// of a git checkout, and "unknown" otherwise (an exported source tree,
// or a directory nested inside some other repository).
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return "unknown"
	}
	a, errA := filepath.EvalSymlinks(strings.TrimSpace(string(top)))
	b, errB := filepath.EvalSymlinks(wd)
	if errA != nil || errB != nil || a != b {
		return "unknown"
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(head))
}

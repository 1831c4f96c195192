package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// provenanceInfo names the host and the inputs a result came from.
type provenanceInfo struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	DeckShapes [][2]int `json:"deck_workloads_slices"`
	CPU        string   `json:"cpu"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Source     string   `json:"source_sha256"`
	Started    string   `json:"started"`
}

// provenance names the host, toolchain, code and inputs of a run.
func provenance(opt options) (provenanceInfo, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return provenanceInfo{}, err
	}
	return provenanceInfo{
		Workload:   opt.workload,
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Trace:      opt.trace,
		DeckShapes: deckShapes,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitHead(".git"),
		Source:     src,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}, nil
}

// cpuModel reads the first model name the kernel reports.
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

// gitHead resolves HEAD from the checkout's .git directory, or reports
// that the checkout is not a git work tree.
func gitHead(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "none (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(dir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under root, in
// path order, so a result names the code it measured even outside git.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stamp identifies where and on what code a result was measured.
type stamp struct {
	CPU                 string `json:"cpu"`
	NProc               int    `json:"nproc"`
	GOMAXPROCSDaemon    int    `json:"gomaxprocs_daemon"`
	GOMAXPROCSGenerator int    `json:"gomaxprocs_generator"`
	GoVersion           string `json:"go_version"`
	// Commit is the VCS revision perfbench was built from, when the
	// checkout is a git repository; Source digests the checkout's Go
	// sources either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func (s stamp) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS daemon %d / generator %d, %s, commit %s, source %.12s",
		s.CPU, s.NProc, s.GOMAXPROCSDaemon, s.GOMAXPROCSGenerator, s.GoVersion, s.Commit, s.Source)
}

// differs names the first host property two stamps disagree on ("" if
// none); results from different hosts are not comparable.
func (s stamp) differs(o stamp) string {
	switch {
	case s.CPU != o.CPU:
		return fmt.Sprintf("cpu %q vs %q", s.CPU, o.CPU)
	case s.NProc != o.NProc:
		return fmt.Sprintf("nproc %d vs %d", s.NProc, o.NProc)
	case s.GOMAXPROCSDaemon != o.GOMAXPROCSDaemon || s.GOMAXPROCSGenerator != o.GOMAXPROCSGenerator:
		return fmt.Sprintf("GOMAXPROCS %d/%d vs %d/%d", s.GOMAXPROCSDaemon, s.GOMAXPROCSGenerator, o.GOMAXPROCSDaemon, o.GOMAXPROCSGenerator)
	case s.GoVersion != o.GoVersion:
		return fmt.Sprintf("%s vs %s", s.GoVersion, o.GoVersion)
	}
	return ""
}

// daemonProcs is the GOMAXPROCS every daemon is started with.
func daemonProcs() int { return runtime.NumCPU() }

func stampHost(root string) stamp {
	s := stamp{
		CPU: cpuModel(), NProc: runtime.NumCPU(),
		GOMAXPROCSDaemon: daemonProcs(), GOMAXPROCSGenerator: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				modified = kv.Value == "true"
			}
		}
		if modified {
			s.Commit += "+modified"
		}
	}
	digest, err := sourceDigest(root)
	if err != nil {
		digest = "unreadable: " + err.Error()
	}
	s.Source = digest
	return s
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go file and go.mod under root (build
// outputs and VCS metadata excluded), in path order.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		fmt.Fprintf(h, "%s\x00", rel)
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

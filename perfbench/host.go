package main

// The host and build record every result carries.

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
	"strings"
)

type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	// Commit is the VCS revision stamped into the build, when it was
	// built inside a git checkout, with "+dirty" for uncommitted changes;
	// SourceSHA256 digests the Go sources under the working directory, so
	// a run outside git is identified too.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func hostRecord() host {
	h := host{GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		CPU: cpuModel(), Commit: "unknown", SourceSHA256: sourceDigest(".")}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		h.Commit += dirty
	}
	return h
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

// sourceDigest hashes every .go and go.mod file under root, in walk
// order, skipping dot directories (build outputs live in .bench_build).
func sourceDigest(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(sum, path+"\n")
		_, err = io.Copy(sum, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// Command perfbench is the mmX benchmark: it builds served deployments
// from a seed, drives them through the public network API, checks their
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run records a span around every layer call and
// reports per-layer times and work counts. See NOTES.md.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload campus --seed 1 --seconds 35 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads maps the -workload names to their definitions.
var workloads = map[string]floorWorkload{
	"campus": campus,
	"room":   room,
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects one run's metrics and operation counts.
type result struct {
	ops     opCount
	passes  int
	metrics map[string]metricVal
}

func (r *result) metric(name string, v float64, unit string) {
	r.metrics[name] = metricVal{Value: v, Unit: unit}
}

// line is the final JSON object, keys in the order readers expect.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// runner identifies the machine and source tree a result came from, so
// results from different runners are never compared unknowingly.
type runner struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentRunner() runner {
	return runner{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     treeDigest("."),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeDigest names the source tree by content: the SHA-256 of every Go
// source and go.mod below root (hidden directories skipped), so two
// checkouts of one commit read the same even without git metadata.
func treeDigest(root string) string {
	h := sha256.New()
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil)[:12])
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// resident-set high-water mark, so peakRSSMB reads the peak of what runs
// next.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reset peak RSS: %v\n", err)
	}
}

// peakRSSMB reads the resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(v, &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"bench", "simnet", "channel", "antenna", "core", "mac", "netctl", "apdsp", "modem"}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: campus or room")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 35, "seconds to keep measuring (whole passes)")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for the span and result files")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want campus or room)\n", *name)
		os.Exit(2)
	}
	rn := currentRunner()
	rb, _ := json.Marshal(rn) //nolint:errcheck // plain struct of strings and ints
	fmt.Printf("runner: %s\n", rb)

	res := &result{metrics: map[string]metricVal{}}
	start := time.Now()
	var err error
	var tr *tracer
	if *trace == 1 {
		tr = newTracer(*seed)
		err = w.traced(*seed, tr, res)
		if err == nil {
			self := selfTimes(tr.spans)
			for _, l := range selfLayers {
				res.metric("self."+l+".ms", float64(self[l].Nanoseconds())*1e-6, "ms")
			}
		}
	} else {
		err = w.measure(*seed, *seconds, res)
	}
	fmt.Printf("%s: seed %d, %d passes in %.1fs, %d ops attempted, %d failed (fail_frac %.4g)\n",
		*name, *seed, res.passes, time.Since(start).Seconds(), res.ops.attempted, res.ops.failed, res.ops.failFrac())
	out := line{Correct: err == nil, Attempted: max(res.ops.attempted, 1), Failed: res.ops.failed, Metrics: res.metrics}
	tag := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace)
	if tr != nil {
		if werr := tr.write(filepath.Join(*outDir, "spans-"+tag+".json")); werr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", werr)
		}
	}
	rec, _ := json.Marshal(struct { //nolint:errcheck // plain data
		Runner runner `json:"runner"`
		Result line   `json:"result"`
	}{rn, out})
	if werr := os.MkdirAll(*outDir, 0o755); werr == nil {
		if werr := os.WriteFile(filepath.Join(*outDir, "result-"+tag+".json"), rec, 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write result: %v\n", werr)
		}
	}
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.6g %s\n", k, res.metrics[k].Value, res.metrics[k].Unit)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %v\n", *name, err)
	}
	b, _ := json.Marshal(out) //nolint:errcheck // plain data
	fmt.Println(string(b))
	if err != nil {
		os.Exit(1)
	}
}

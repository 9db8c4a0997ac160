// Command perfbench is mube's end-to-end benchmark. It runs one workload per
// process — a cold pass over a 50k-source universe, a scripted interactive
// session over the paper's 700-source universe, or a churn loop over a
// 20k-source universe — measures it for a fixed time, checks every step's
// output, and prints one JSON result as the last line of standard output.
//
//	perfbench -workload cold-50k -seed 1 -seconds 25 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics, timed around the calls into each layer from
// this package. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], workloads(), os.Stdout, os.Stderr))
}

// run parses args, runs one of ws and prints its result; it returns the exit
// code.
func run(args []string, ws map[string]workload, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(ws), ", "))
	seed := fs.Int64("seed", 1, "workload seed: generates the universe, the edit script and the solver seeds")
	seconds := fs.Int("seconds", 25, "how long to measure, in seconds (rounds continue until both this and the minimum round count are met)")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and untraced rounds alternately and prints per-layer metrics")
	commit := fs.String("commit", "unknown", "commit the binary was built from, recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := ws[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(ws), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace %d, want 0 or 1\n", *trace)
		return 2
	}
	fmt.Fprintf(stdout, "# box %s workload=%s seed=%d\n", boxLine(*commit), w.name, *seed)
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "# %s\n", res.summary())
	line, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// boxLine records the machine a result was measured on.
func boxLine(commit string) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit)
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
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

func workloadNames(ws map[string]workload) []string {
	var names []string
	for n := range ws {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output against an independent
// reference, and prints its metrics as one JSON line:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of the workload; with
// --trace 1 it runs the layer run instead, which times calls into every
// layer from outside and reports the per-layer metrics. README.md in
// this directory documents the workloads, the metrics and the seeds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeed is the seed whose paper-suite and fig7-sweep references
// are committed digests; heldOutSeed is the seed a claimed gain must
// also hold on, and which is not used while a change is developed.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// report is the result line's shape.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	traced := fs.Int("trace", 0, "1 runs the traced layer run and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	p := defaultParams(*seed, procs)
	h := fingerprint(*seed)
	dir := filepath.Join(*out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	ctx := context.Background()
	window := time.Duration(*seconds * float64(time.Second))
	var rep report
	var err error
	if *traced == 1 {
		tr := newTracer()
		rep, err = layerRun(ctx, def, p, tr)
		if err == nil {
			err = tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", def.name, *seed)), h)
		}
	} else {
		rep, err = endToEnd(ctx, def, p, window, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}

	record := struct {
		Host     host   `json:"host"`
		Workload string `json:"workload"`
		Trace    int    `json:"trace"`
		report
	}{h, def.name, *traced, rep}
	blob, err := json.MarshalIndent(record, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", def.name, *seed, *traced)), blob, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	summarize(stderr, def.name, h, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// summarize prints the host record and every metric by name with its
// unit, for a person reading the run.
func summarize(w io.Writer, name string, h host, rep report) {
	fmt.Fprintf(w, "perfbench: %s seed=%d nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n",
		name, h.Seed, h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
	frac := 0.0
	if rep.Attempted > 0 {
		frac = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "  %-40s %d of %d (failed_frac %.4g)\n", "failed", rep.Failed, rep.Attempted, frac)
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
}

// passResult is one timed, checked unit of a workload's work.
type passResult struct {
	Wall, CPU time.Duration
	// Ops counts the operations the pass attempted and Failed the ones
	// whose output failed its check (or that errored or were refused).
	// Timed is how many of the Ops Wall covers, when that is fewer.
	Ops, Failed, Timed int
	// Latencies holds one sample per successful operation, in ms.
	Latencies []float64
	// Layer holds per-layer metrics, filled only on traced passes.
	Layer metrics
	// PeakRSS is the highest resident set sampled during the pass, MiB.
	PeakRSS float64
}

// runner is a set-up workload, ready to run passes.
type runner interface {
	// pass runs one timed unit of work and checks every output; tr is
	// nil on untraced passes.
	pass(ctx context.Context, tr *tracer) (passResult, error)
}

type workloadDef struct {
	name  string
	setup func(ctx context.Context, p params) (runner, error)
}

var workloads = []workloadDef{
	{"paper-suite", setupPaperSuite},
	{"fig7-sweep", setupFig7Sweep},
	{"served-mix", setupServedMix},
	{"dist-gen", setupDistGen},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	s := ""
	for i, d := range workloads {
		if i > 0 {
			s += ", "
		}
		s += d.name
	}
	return s
}

// endToEnd measures a workload's end-to-end metrics. It sets the
// workload up, then runs passes until the window has elapsed (at least
// MinPasses). The further set-ups that give setup_s its median run
// spread over the window, each replacing the runner with an equal one,
// so set-up and passes sample the same host conditions.
func endToEnd(ctx context.Context, def workloadDef, p params, window time.Duration, log io.Writer) (report, error) {
	var (
		r      runner
		setups []float64
		passes []passResult
		spent  time.Duration // time spent in passes
	)
	for len(setups) < p.Setups || len(passes) < p.MinPasses || spent < window {
		if len(setups) < p.Setups && spent >= window*time.Duration(len(setups))/time.Duration(p.Setups) {
			start := time.Now()
			var err error
			if r, err = def.setup(ctx, p); err != nil {
				return report{}, err
			}
			setups = append(setups, time.Since(start).Seconds())
			fmt.Fprintf(log, "perfbench: %s: set-up %d: %.3fs, RSS %.1f MiB\n", def.name, len(setups), setups[len(setups)-1], rssMiB())
			continue
		}
		// Each pass starts from a heap returned to the OS, so its peak
		// resident set is its own, not a leftover of earlier passes.
		debug.FreeOSMemory()
		start := time.Now()
		rss := watchRSS()
		pr, err := r.pass(ctx, nil)
		pr.PeakRSS = rss.stop()
		if err != nil {
			return report{}, err
		}
		spent += time.Since(start)
		passes = append(passes, pr)
		fmt.Fprintf(log, "perfbench: %s: pass %d: wall %.3fs cpu %.3fs peak RSS %.1f MiB ops %d failed %d\n", def.name, len(passes), pr.Wall.Seconds(), pr.CPU.Seconds(), pr.PeakRSS, pr.Ops, pr.Failed)
	}
	return summarizePasses(passes, setups), nil
}

// summarizePasses folds the measured passes into the result line. Any
// failed operation withholds every metric: a run whose outputs are
// wrong reports failures, not numbers.
//
// The time metrics come from the faster half of the passes. On a shared
// host, co-tenants stretch whole passes by tens of percent, and the
// slower half carries that interference rather than the program's cost.
// CPU time is no exception: a pass slowed by a busy neighbour on the
// same cores also takes more CPU time to do the same work. The peak
// resident set is the median over every pass.
func summarizePasses(passes []passResult, setups []float64) report {
	rep := report{Metrics: metrics{}}
	var rss []float64
	for _, pr := range passes {
		rep.Attempted += pr.Ops
		rep.Failed += pr.Failed
		rss = append(rss, pr.PeakRSS)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	if !rep.Correct {
		return rep
	}
	var walls, cpus, rates, lat []float64
	for _, pr := range fasterHalf(passes) {
		walls = append(walls, pr.Wall.Seconds())
		cpus = append(cpus, pr.CPU.Seconds())
		timed := pr.Ops
		if pr.Timed > 0 {
			timed = pr.Timed
		}
		rates = append(rates, float64(timed)/pr.Wall.Seconds())
		lat = append(lat, pr.Latencies...)
	}
	m := rep.Metrics
	m.set("setup_s", median(setups), "s")
	m.set("wall_s", median(walls), "s")
	m.set("cpu_s", median(cpus), "s")
	m.set("requests_per_s", median(rates), "1/s")
	m.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	m.set("latency_p90_ms", quantile(lat, 0.9), "ms")
	m.set("max_rss_mb", median(rss), "MiB")
	return rep
}

// fasterHalf returns the half of the passes (rounded up) with the
// shortest wall time.
func fasterHalf(passes []passResult) []passResult {
	s := append([]passResult(nil), passes...)
	sort.Slice(s, func(i, j int) bool { return s[i].Wall < s[j].Wall })
	return s[:(len(s)+1)/2]
}

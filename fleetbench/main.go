// Command fleetbench is the client-observed benchmark of the VARADE
// serving stack. It drives router → varade-serve → scores from outside,
// through the packages' public functions, from one load-generator
// process, and prints one JSON result line last:
//
//	fleetbench --workload paced-routed --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and reports the per-layer metrics, the
// latency budget and the tracing overhead. "fleetbench compare a.json
// b.json" compares two results written with --out, and refuses results
// from different environments. "fleetbench list" prints every metric
// with the end-to-end figure it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:]))
		case "list":
			printList()
			return
		}
	}
	os.Exit(runBench(os.Args[1:]))
}

func runCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: fleetbench compare old.json new.json")
		return 2
	}
	old, err := readRecord(fs.Arg(0))
	if err == nil {
		var cur Record
		if cur, err = readRecord(fs.Arg(1)); err == nil {
			err = compare(os.Stdout, old, cur)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		return 3
	}
	return 0
}

func printList() {
	fmt.Println("workloads:")
	for _, s := range specs {
		frame := fmt.Sprint(s.frame)
		if s.frame == 0 {
			frame = "2w" // one frame per churn session
		}
		fmt.Printf("  %-14s %s loop, frame %s rows, precisions %v: %s\n", s.name, s.loop, frame, s.precs, s.why)
	}
	fmt.Printf("  paced-routed ladder (per-session rows/s): %v, reference step %d\n", pacedLadder, pacedRef)
	fmt.Println("end-to-end metrics (--trace 0):")
	for _, m := range e2eMetrics {
		fmt.Printf("  %-26s %-11s %s is better\n", m.name, m.unit, m.better)
	}
	fmt.Println("per-layer metrics (--trace 1) → what they should move:")
	for _, m := range layerMetrics {
		fmt.Printf("  %-40s %-7s %s\n", m.name, m.unit, m.moves)
	}
}

func runBench(args []string) int {
	fs := flag.NewFlagSet("fleetbench", flag.ExitOnError)
	workload := fs.String("workload", "", "paced-routed, bulk-direct or churn-routed")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1: also run a traced pass and report per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for registries")
	out := fs.String("out", "", "also write the stamped result record to this file")
	fs.Parse(args)

	sp, ok := findSpec(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "fleetbench: unknown workload %q\n", *workload)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := stampEnv(*seed)
	blob, _ := json.Marshal(env)
	fmt.Printf("env %s\n", blob)

	dir := filepath.Join(*workdir, fmt.Sprintf("fleetbench-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	nsess := sessionCount(runtime.NumCPU())
	in, err := genInputs(*seed, nsess)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench: inputs:", err)
		return 1
	}

	runPass := func(traced bool) (*pass, error) {
		p := &pass{sp: sp, in: in, secs: *seconds, traced: traced, dir: filepath.Join(dir, fmt.Sprint(traced)), nsess: nsess}
		err := p.run()
		return p, err
	}
	plain, err := runPass(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		return 1
	}
	passes := []*pass{plain}
	var traced *pass
	if *trace == 1 {
		if traced, err = runPass(true); err != nil {
			fmt.Fprintln(os.Stderr, "fleetbench:", err)
			return 1
		}
		passes = append(passes, traced)
	}

	var t tally
	for _, p := range passes {
		t.merge(p.tally)
	}
	res := Result{Attempted: max(t.attempted(), 1), Failed: t.failed(), Metrics: map[string]Metric{}}
	res.Correct = res.Failed == 0 && t.f64Wrong == 0
	for _, line := range plain.lines {
		fmt.Println(line)
	}
	for _, m := range reportedMetrics {
		fmt.Printf("%s = %.4f %s (reported, not gated)\n", m.name, plain.e2e[m.name], m.unit)
	}
	if traced == nil {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = Metric{Value: plain.e2e[m.name], Unit: m.unit}
		}
	} else {
		for _, line := range traced.lines {
			fmt.Println("traced:", line)
		}
		traced.layer["check.failed_share"] = float64(res.Failed) / float64(res.Attempted)
		traced.layer["report.sustained_rate_wps"] = traced.e2e["sustained_rate_wps"]
		fmt.Printf("%-26s %14s %14s %10s\n", "end-to-end", "untraced", "traced", "overhead")
		for _, m := range append(e2eMetrics, reportedMetrics...) {
			a, b := plain.e2e[m.name], traced.e2e[m.name]
			ov := 0.0
			if a != 0 {
				ov = (b - a) / a
			}
			traced.layer["trace.overhead."+m.name] = ov
			fmt.Printf("%-26s %14.4f %14.4f %+9.1f%%\n", m.name, a, b, 100*ov)
		}
		if _, ok := traced.layer["paced.overload_failed_share"]; !ok {
			traced.layer["paced.overload_failed_share"] = 0 // only the ladder has steps past capacity
		}
		for _, m := range layerMetrics {
			v, ok := traced.layer[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "fleetbench: per-layer metric %s was not produced\n", m.name)
				return 1
			}
			res.Metrics[m.name] = Metric{Value: v, Unit: m.unit}
		}
	}
	fmt.Printf("failed_share = %.6f (%d of %d attempted; %d scores delivered wrong or mislabelled)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, t.bad)
	if t.firstBad != "" {
		fmt.Println("first score off the oracle (paced: overload steps included):", t.firstBad)
	}
	if *out != "" {
		rec := Record{Env: env, Workload: sp.name, Trace: *trace == 1, Result: res}
		blob, _ := json.MarshalIndent(rec, "", "  ")
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fleetbench:", err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if t.f64Wrong > 0 {
		fmt.Fprintf(os.Stderr, "fleetbench: %d float64 scores differ from the oracle\n", t.f64Wrong)
		return 1
	}
	return 0
}

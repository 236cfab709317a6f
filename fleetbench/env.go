package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"varade/internal/tensor"
)

// Env is the environment stamp every result carries. Two results are
// comparable only when every field but Seed matches: a different CPU,
// core count, toolchain, kernel or GEMM dispatch moves the figures by
// more than any code change this benchmark is meant to detect.
type Env struct {
	CPUModel    string `json:"cpu_model"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Kernel      string `json:"kernel"`
	GemmKernel  string `json:"gemm_kernel"`
	QGemmKernel string `json:"qgemm_kernel"`
	Seed        uint64 `json:"seed"`
}

func stampEnv(seed uint64) Env {
	return Env{
		CPUModel:    cpuModel(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Kernel:      kernelRelease(),
		GemmKernel:  tensor.GemmKernelName(),
		QGemmKernel: tensor.QGemmKernelName(),
		Seed:        seed,
	}
}

// mismatches lists the fields on which a and b differ, ignoring the seed
// (runs at different seeds are exactly what a spread is made of).
func (a Env) mismatches(b Env) []string {
	var out []string
	add := func(name string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	add("cpu_model", a.CPUModel, b.CPUModel)
	add("nproc", a.NProc, b.NProc)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("go_version", a.GoVersion, b.GoVersion)
	add("kernel", a.Kernel, b.Kernel)
	add("gemm_kernel", a.GemmKernel, b.GemmKernel)
	add("qgemm_kernel", a.QGemmKernel, b.QGemmKernel)
	return out
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// Record is what -out writes: the stamped environment, the run's
// identity and its result line.
type Record struct {
	Env      Env    `json:"env"`
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Result   Result `json:"result"`
}

// errEnvMismatch is returned by compare when the two records come from
// different environments.
type errEnvMismatch []string

func (e errEnvMismatch) Error() string {
	return "refusing to compare results from different environments:\n  " + strings.Join(e, "\n  ")
}

// compare prints old → new for every metric the two records share. It
// refuses records whose environments differ, naming the fields that do.
func compare(w io.Writer, old, cur Record) error {
	if mm := old.Env.mismatches(cur.Env); len(mm) > 0 {
		return errEnvMismatch(mm)
	}
	if old.Workload != cur.Workload {
		fmt.Fprintf(w, "note: workloads differ (%s vs %s)\n", old.Workload, cur.Workload)
	}
	names := make([]string, 0, len(cur.Result.Metrics))
	for k := range cur.Result.Metrics {
		if _, ok := old.Result.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		a, b := old.Result.Metrics[k], cur.Result.Metrics[k]
		delta := ""
		if a.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(b.Value-a.Value)/a.Value)
		}
		fmt.Fprintf(w, "%-44s %14.4f → %14.4f %-10s %8s\n", k, a.Value, b.Value, b.Unit, delta)
	}
	return nil
}

func readRecord(path string) (Record, error) {
	var r Record
	blob, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	err = json.Unmarshal(blob, &r)
	return r, err
}

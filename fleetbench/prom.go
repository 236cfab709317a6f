package main

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"varade/internal/obs"
)

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnap is a parsed exposition: what a layer exports about itself at
// one instant, read through its public WritePrometheus.
type promSnap []promSample

func parseProm(text string) promSnap {
	var out promSnap
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		s := promSample{name: series, labels: map[string]string{}, value: v}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			s.name = series[:i]
			for _, kv := range strings.Split(strings.TrimSuffix(series[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// sum adds every series of the named family whose labels include all of
// the given name/value pairs.
func (p promSnap) sum(name string, match ...string) float64 {
	var t float64
	for _, s := range p {
		if s.name == name && s.matches(match) {
			t += s.value
		}
	}
	return t
}

func (s promSample) matches(match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if s.labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}

// buckets returns a histogram family's cumulative bucket counts summed
// over its series, keyed by upper bound.
func (p promSnap) buckets(name string) map[float64]float64 {
	out := map[float64]float64{}
	for _, s := range p {
		if s.name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			le = math.Inf(1)
		}
		out[le] += s.value
	}
	return out
}

// histQuantile is the q-quantile of the observations a histogram family
// gained between snapshots a and b: the upper bound of the bucket the
// quantile falls in (the obs histograms bound that error to ~3%).
func histQuantile(a, b promSnap, name string, q float64) float64 {
	ba, bb := a.buckets(name), b.buckets(name)
	les := make([]float64, 0, len(bb))
	for le := range bb {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return 0
	}
	total := bb[les[len(les)-1]] - ba[les[len(les)-1]]
	if total <= 0 {
		return 0
	}
	want := math.Ceil(q * total)
	for _, le := range les {
		if bb[le]-ba[le] >= want {
			if math.IsInf(le, 1) {
				return les[len(les)-2]
			}
			return le
		}
	}
	return 0
}

// scrape reads a layer's exposition through its public surface.
func scrape(write func(*bytes.Buffer)) promSnap {
	var b bytes.Buffer
	write(&b)
	return parseProm(b.String())
}

// stageSnap is the process-global compute-stage totals (nn layer),
// keyed "stage/precision".
type stageSnap map[string]obs.StageStat

func readStages() stageSnap {
	out := stageSnap{}
	for _, st := range obs.StagesSnapshot() {
		out[st.Stage+"/"+st.Precision] = st
	}
	return out
}

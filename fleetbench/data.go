package main

import (
	"fmt"
	"math"

	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/robot"
	"varade/internal/stream"
	"varade/internal/tensor"
)

// Every session streams its own simulated robot run, looped: a run of
// loopRows rows (a multiple of every frame size used, so frames never
// straddle the loop seam) is generated before the clock starts and
// replayed as often as the workload needs. The oracle for a looped
// stream is precomputed over the run extended by its last w−1 rows, so
// windows that span the seam are covered too.
const (
	loopRows = 4096
	// plantSeed fixes the simulated plant (action geometry); the run
	// seed varies only the noise and schedule realisation.
	plantSeed = 42
)

const (
	precF64  = "float64"
	precF32  = "float32"
	precInt8 = "int8"
)

// Relative tolerances against the float64 oracle, as asserted by the
// serving layer's own precision tests; float64 must match bit for bit.
var relTol = map[string]float64{precF32: 1e-4, precInt8: 0.2}

// numChannels is the stream width: the simulator's 17 interesting channels.
var numChannels = len(robot.InterestingChannels())

// Training of the served model: a fixed simulated run, independent of
// --seed, so every run serves the same weights.
const (
	trainRows   = 3000
	trainNoise  = 7
	trainEpochs = 5
	// calibWindows is the int8 lane's calibration batch. An int8 lane
	// latches its activation ranges on the first batch it scores; one
	// contiguous stretch of the robot's run does not cover the ranges of
	// the rest (up to 7% of windows then miss the float64 oracle by more
	// than the 0.2 tolerance), windows spread over a whole run do.
	calibWindows = 256
)

// trainModel builds the served model: the paper's topology at the edge
// size (EdgeConfig, w=8) over the 17 interesting channels, briefly
// trained. It also returns the int8 calibration set: calibWindows
// windows spread evenly over the training run.
func trainModel() (*core.Model, *tensor.Tensor32, error) {
	m, err := core.New(core.EdgeConfig(numChannels))
	if err != nil {
		return nil, nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs, tc.Shards = trainEpochs, 1
	m.SetTrainConfig(tc)
	train, err := simulate(trainNoise, trainRows)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Fit(train); err != nil {
		return nil, nil, err
	}
	w, c := m.WindowSize(), train.Dim(1)
	calib := tensor.New(calibWindows, w, c)
	cd, td := calib.Data(), train.Data()
	stride := (trainRows - w) / calibWindows
	for j := 0; j < calibWindows; j++ {
		copy(cd[j*w*c:(j+1)*w*c], td[j*stride*c:(j*stride+w)*c])
	}
	return m, tensor.Convert[float32](calib), nil
}

// simulate runs the robot simulator for rows rows and returns the
// normalised 17-channel series.
func simulate(noiseSeed uint64, rows int) (*tensor.Tensor, error) {
	sim, err := robot.NewSimulator(robot.SimConfig{
		SampleRate: 10, Seed: plantSeed, NoiseSeed: noiseSeed, Ambient: 22, IdleGap: 0.5,
	})
	if err != nil {
		return nil, err
	}
	series := robot.SelectChannels(sim.Run(rows), robot.InterestingChannels())
	return robot.FitNormalizer(series).Apply(series), nil
}

// sessionStream is one device's pre-generated input and its oracle.
type sessionStream struct {
	rows   [][]float64 // loopRows rows of the normalised 17-channel stream
	oracle []float64   // oracle[j]: float64 score of the looped window ending at row j
}

// genStream simulates one device run for the given seed and session and
// computes its oracle with detect.ScoreSeries on the float64 model.
func genStream(model *core.Model, seed uint64, sess int) (*sessionStream, error) {
	series, err := simulate(1000+seed*64+uint64(sess), loopRows)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, loopRows)
	for i := range rows {
		rows[i] = append([]float64(nil), series.Row(i).Data()...)
	}
	return &sessionStream{rows: rows, oracle: loopOracle(model, rows)}, nil
}

// loopOracle scores rows replayed in a loop: entry j is
// detect.ScoreSeries' score of the window ending at row j, where the
// window of a row j < w−1 wraps round to the end of the previous loop.
func loopOracle(model detect.Detector, rows [][]float64) []float64 {
	n, c, w := len(rows), len(rows[0]), model.WindowSize()
	ext := tensor.New(n+w-1, c)
	ed := ext.Data()
	for p := 0; p < n+w-1; p++ {
		copy(ed[p*c:(p+1)*c], rows[(p-(w-1)+n)%n])
	}
	return detect.ScoreSeries(model, ext)[w-1:]
}

// verifier checks one session's score stream against the oracle. The
// session's row i is the looped stream's row base+i; the score the
// server labels i must be the oracle's window ending at that row. Rows
// 0..w−2 of a session complete no window, so a score labelled there is
// mislabelled, as is any index that does not advance.
type verifier struct {
	oracle []float64
	w      int
	base   int
	prec   string
	next   int // lowest index the next score may carry

	ok, wrongValue, mislabelled, f64Wrong int64
	firstBad                              string
}

func newVerifier(st *sessionStream, w, base int, prec string) *verifier {
	return &verifier{oracle: st.oracle, w: w, base: base, prec: prec, next: w - 1}
}

// expected returns the oracle score for session index i, and whether a
// window ends there at all.
func (v *verifier) expected(i int) (float64, bool) {
	if i < v.w-1 {
		return 0, false
	}
	return v.oracle[(v.base+i)%len(v.oracle)], true
}

// check classifies one delivered score and reports whether it is correct.
func (v *verifier) check(sc stream.Score) bool {
	want, ok := v.expected(sc.Index)
	if !ok || sc.Index < v.next {
		v.mislabelled++
		v.noteBad("index %d mislabelled (next allowed %d)", sc.Index, v.next)
		return false
	}
	v.next = sc.Index + 1
	if valueOK(v.prec, sc.Value, want) {
		v.ok++
		return true
	}
	v.wrongValue++
	if v.prec == precF64 {
		v.f64Wrong++
	}
	v.noteBad("%s score at %d = %.17g, oracle %.17g", v.prec, sc.Index, sc.Value, want)
	return false
}

func (v *verifier) noteBad(format string, args ...any) {
	if v.firstBad == "" {
		v.firstBad = fmt.Sprintf(format, args...)
	}
}

func (v *verifier) bad() int64 { return v.wrongValue + v.mislabelled }

// valueOK applies the precision's tolerance: bit identity for float64,
// relative error for the reduced precisions.
func valueOK(prec string, got, want float64) bool {
	if prec == precF64 {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want)/math.Max(1e-12, math.Abs(want)) <= relTol[prec]
}

// windowsOwed is how many scores a session owes after rows rows.
func windowsOwed(rows, w int) int {
	if rows < w {
		return 0
	}
	return rows - w + 1
}

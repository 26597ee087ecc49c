package main

import (
	"runtime"
	"time"

	tsvd "repro"
	"repro/internal/workload"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 25

// refSeed seeds the inputs of the phases a workload does not name. Those
// passes are controls: on fixed inputs their metrics change only when the
// code does, whatever --seed is.
const refSeed = 2019

// inputs is everything a run generates from its seed, plus the installed
// detector session and the running trap daemon.
type inputs struct {
	streams [][]callOp
	suites  []*workload.Suite
	sched   *syncSchedule
	session *tsvd.Session
	daemon  *daemon
}

// setup generates the run's inputs, installs the detector and starts the
// daemon, setupReps times over, and keeps the last set. setup_s is the
// median of the repetitions.
func (b *bench) setup() (*inputs, error) {
	var in *inputs
	var durs []float64
	for i := 0; i < setupReps; i++ {
		if in != nil {
			in.daemon.stop()
		}
		// Every repetition starts from a collected heap, so that a GC cycle
		// left over from the previous one does not land in its time.
		runtime.GC()
		start := time.Now()
		next := &inputs{
			streams: genCallStreams(b.seedFor("calls"), b.procs),
			suites:  genSuites(b.seedFor("suite"), suiteCount(b.workload == "suite")),
			sched:   genSchedule(b.seedFor("trapsync"), b.procs),
		}
		var err error
		if next.session, err = tsvd.Install(tsvd.DefaultConfig()); err != nil {
			return nil, err
		}
		if next.daemon, err = startDaemon(); err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(start).Seconds())
		in = next
	}
	b.setE2E("setup_s", median(durs), "s")
	return in, nil
}

// seedFor is the input seed of a phase: --seed for the named workload's
// phase, refSeed for the others.
func (b *bench) seedFor(phase string) int64 {
	if phase == b.workload {
		return b.seed
	}
	return refSeed
}

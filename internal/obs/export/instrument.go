package export

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"quorumplace/internal/obs"
)

// Instrumentation is what a command's profiling and telemetry flags
// (-cpuprofile, -memprofile, -trace, -stats, -metrics-addr, -metrics-hold)
// ask for; the zero value asks for nothing. qpp, qppeval and quorumstat
// share it.
type Instrumentation struct {
	CPUProfile  string        // write a CPU profile of the run to this file
	MemProfile  string        // write a heap profile to this file at exit
	Trace       string        // write the JSONL telemetry trace to this file at exit
	Stats       bool          // print the telemetry summary to stderr at exit
	MetricsAddr string        // serve live metrics on this address during the run
	MetricsHold time.Duration // with MetricsAddr: keep serving this long after the run
}

// Start starts what in asks for and returns the function that finishes it,
// which the caller defers at once. Any of Trace, Stats and MetricsAddr
// installs the package-level collector. finish undoes the steps in reverse
// order: it holds and closes the metrics server while the collector is
// still installed, so scrapers see live data during the run and for
// MetricsHold afterwards; then it takes the last snapshot, uninstalls the
// collector and writes the trace and summary; then the heap profile; and
// last it stops the CPU profile. A caller defer registered after Start's
// runs before finish, while the collector is still installed. Messages go
// to stderr prefixed by prog. On error, Start finishes what it started
// before returning.
func (in Instrumentation) Start(prog string, stderr io.Writer) (finish func(), err error) {
	var undo []func()
	finish = func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
	fail := func(err error) (func(), error) {
		finish()
		return func() {}, err
	}
	if in.CPUProfile != "" {
		f, err := os.Create(in.CPUProfile)
		if err != nil {
			return fail(err)
		}
		undo = append(undo, func() { f.Close() })
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		undo = append(undo, pprof.StopCPUProfile)
	}
	if in.MemProfile != "" {
		undo = append(undo, func() {
			f, err := os.Create(in.MemProfile)
			if err != nil {
				fmt.Fprintf(stderr, "%s: memprofile: %v\n", prog, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "%s: memprofile: %v\n", prog, err)
			}
		})
	}
	if in.Trace != "" || in.Stats || in.MetricsAddr != "" {
		obs.Enable(nil)
		undo = append(undo, func() {
			c := obs.Active()
			if c == nil {
				return
			}
			snap := c.Snapshot()
			obs.Disable()
			if in.Trace != "" {
				f, err := os.Create(in.Trace)
				if err != nil {
					fmt.Fprintf(stderr, "%s: trace: %v\n", prog, err)
				} else {
					if err := snap.WriteJSONL(f); err != nil {
						fmt.Fprintf(stderr, "%s: trace: %v\n", prog, err)
					}
					f.Close()
				}
			}
			if in.Stats {
				fmt.Fprint(stderr, snap.Summary())
			}
		})
	}
	if in.MetricsAddr != "" {
		srv, err := Serve(in.MetricsAddr, ActiveSource())
		if err != nil {
			return fail(fmt.Errorf("metrics-addr: %w", err))
		}
		fmt.Fprintf(stderr, "%s: serving metrics on %s (json at /metrics.json)\n", prog, srv.URL())
		undo = append(undo, func() {
			if in.MetricsHold > 0 {
				time.Sleep(in.MetricsHold)
			}
			srv.Close()
		})
	}
	return finish, nil
}

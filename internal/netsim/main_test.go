package netsim

import (
	"fmt"
	"os"
	"testing"

	"quorumplace/internal/obs"
)

// TestMain fails the package when its tests leave package-level telemetry
// on: every later test would then record spans into a collector nobody
// reads, and its timings and allocations would include them.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && obs.Enabled() {
		fmt.Fprintln(os.Stderr, "netsim tests left package-level telemetry on")
		code = 1
	}
	os.Exit(code)
}

// restoreTelemetry reinstalls prev, the collector active before a test
// installed its own, or turns telemetry off when there was none.
// obs.Enable(nil) would install a fresh collector instead.
func restoreTelemetry(prev *obs.Collector) {
	if prev == nil {
		obs.Disable()
		return
	}
	obs.Enable(prev)
}

package export

import (
	"io"
	"strings"
	"testing"

	"quorumplace/internal/obs"
)

// TestInstrumentationUninstalls checks that the collector Start installs is
// gone after finish, and after a Start whose metrics server fails to bind,
// which finishes the steps before it. (qpp's and qppeval's run tests cover
// what finish writes.)
func TestInstrumentationUninstalls(t *testing.T) {
	finish, err := Instrumentation{Stats: true}.Start("prog", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Active() == nil {
		t.Fatal("Start with Stats installed no collector")
	}
	finish()
	if obs.Active() != nil {
		t.Fatal("finish left the collector installed")
	}
	_, err = Instrumentation{Stats: true, MetricsAddr: "not-an-address"}.Start("prog", io.Discard)
	if err == nil || !strings.HasPrefix(err.Error(), "metrics-addr: ") {
		t.Fatalf("err = %v, want a metrics-addr error", err)
	}
	if obs.Active() != nil {
		t.Fatal("a failed Start left the collector installed")
	}
}

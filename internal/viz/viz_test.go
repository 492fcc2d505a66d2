package viz

import (
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	out := Histogram([]float64{1, 1, 1, 2, 3, 3}, 2, 10)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d bins, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "3") { // first bin holds the three 1s
		t.Fatalf("first bin line %q missing count", lines[0])
	}
	if !strings.Contains(lines[0], "██████████") {
		t.Fatalf("peak bin not full width: %q", lines[0])
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	if out := Histogram(nil, 4, 10); out != "(no data)\n" {
		t.Fatalf("empty input: %q", out)
	}
	if out := Histogram([]float64{5, 5, 5}, 4, 10); !strings.Contains(out, "all 3 values") {
		t.Fatalf("constant input: %q", out)
	}
	if out := Histogram([]float64{1, 2}, 0, 10); out != "(no data)\n" {
		t.Fatalf("zero bins: %q", out)
	}
}

func TestCDF(t *testing.T) {
	out := CDF([]CDFSeries{
		{Label: "a", Values: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{Label: "longer-name", Values: []float64{10}},
		{Label: "empty"},
	})
	if !strings.Contains(out, "p50") || !strings.Contains(out, "p99") {
		t.Fatalf("missing quantile headers:\n%s", out)
	}
	if !strings.Contains(out, "longer-name") {
		t.Fatalf("missing label:\n%s", out)
	}
	if !strings.Contains(out, "(empty)") {
		t.Fatalf("missing empty marker:\n%s", out)
	}
	// p100 of series a is 10.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "10") {
		t.Fatalf("series a row missing max: %q", lines[1])
	}
	if out := CDF(nil); out != "(no data)\n" {
		t.Fatalf("nil series: %q", out)
	}
}

// Package viz renders small ASCII charts for the command-line tools:
// histograms of latency samples and CDF curves comparing placements. It is
// deliberately tiny — enough to see a distribution's shape in a terminal
// without any plotting dependency.
package viz

import (
	"fmt"
	"sort"
	"strings"
)

// Histogram renders values as a horizontal-bar histogram with the given
// number of bins. width is the maximum bar length in characters.
func Histogram(values []float64, bins, width int) string {
	if len(values) == 0 || bins <= 0 || width <= 0 {
		return "(no data)\n"
	}
	min, max := values[0], values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max == min {
		return fmt.Sprintf("all %d values = %.4g\n", len(values), min)
	}
	counts := make([]int, bins)
	for _, v := range values {
		b := int(float64(bins) * (v - min) / (max - min))
		if b == bins {
			b--
		}
		counts[b]++
	}
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	var sb strings.Builder
	for b := 0; b < bins; b++ {
		lo := min + (max-min)*float64(b)/float64(bins)
		hi := min + (max-min)*float64(b+1)/float64(bins)
		bar := strings.Repeat("█", counts[b]*width/peak)
		fmt.Fprintf(&sb, "[%8.3g, %8.3g) %6d %s\n", lo, hi, counts[b], bar)
	}
	return sb.String()
}

// CDFSeries is one labelled sample set for CDF.
type CDFSeries struct {
	Label  string
	Values []float64
}

// CDF renders empirical CDF curves for several series on a shared x-axis
// as rows of quantiles — a compact textual alternative to a plot.
func CDF(series []CDFSeries) string {
	if len(series) == 0 {
		return "(no data)\n"
	}
	quantiles := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00}
	var sb strings.Builder
	labelW := len("series")
	for _, s := range series {
		if len(s.Label) > labelW {
			labelW = len(s.Label)
		}
	}
	fmt.Fprintf(&sb, "%-*s", labelW, "series")
	for _, q := range quantiles {
		fmt.Fprintf(&sb, "  %8s", fmt.Sprintf("p%g", q*100))
	}
	sb.WriteByte('\n')
	for _, s := range series {
		fmt.Fprintf(&sb, "%-*s", labelW, s.Label)
		if len(s.Values) == 0 {
			sb.WriteString("  (empty)\n")
			continue
		}
		sorted := append([]float64(nil), s.Values...)
		sort.Float64s(sorted)
		for _, q := range quantiles {
			idx := int(q * float64(len(sorted)-1))
			fmt.Fprintf(&sb, "  %8.4g", sorted[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

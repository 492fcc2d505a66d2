// Command qppmon is a terminal dashboard over the live metrics plane: it
// polls the /metrics.json endpoint a solver exposes via -metrics-addr (see
// cmd/qppeval and cmd/quorumstat) and renders counters, gauges, histogram
// quantiles and span rollups with unicode sparkline trends, refreshed in
// place. It can also validate the Prometheus exposition of a live endpoint
// (-validate, the CI smoke test) or render a one-shot dashboard from a
// JSONL telemetry trace written with -trace (-tail), with spans rolled up
// by path as the live endpoint does.
//
// When the endpoint publishes workload-heat gauges (heat.*, see
// internal/heat), a dedicated drift panel shows the drift score with its
// trend, the top drifting client, and the current heavy hitters.
//
// With -json the payload is emitted as machine-readable JSON to stdout
// instead of the rendered dashboard (no ANSI); it requires -once or
// -tail, the one-shot modes scripts drive.
//
// Usage:
//
//	qppmon [-addr host:port] [-interval 1s] [-once] [-frames N]
//	qppmon -addr host:port -once -json
//	qppmon -addr host:port -validate
//	qppmon -tail trace.jsonl [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"quorumplace/internal/obs"
	"quorumplace/internal/obs/export"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "qppmon: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qppmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9464", "metrics endpoint to poll (host:port or full URL)")
	interval := fs.Duration("interval", time.Second, "poll interval")
	once := fs.Bool("once", false, "render a single frame and exit")
	frames := fs.Int("frames", 0, "stop after this many frames (0 = run until interrupted)")
	validate := fs.Bool("validate", false, "fetch /metrics once, check Prometheus text syntax, and exit")
	tail := fs.String("tail", "", "render a dashboard from a JSONL telemetry trace file instead of polling")
	width := fs.Int("width", 30, "sparkline width in cells")
	jsonOut := fs.Bool("json", false, "with -once or -tail: emit the payload as JSON to stdout instead of the dashboard")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut && !*once && *tail == "" {
		return fmt.Errorf("-json requires -once or -tail")
	}

	if *tail != "" {
		f, err := os.Open(*tail)
		if err != nil {
			return err
		}
		snap, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *tail, err)
		}
		p := export.BuildPayload(snap)
		if *jsonOut {
			return writeJSON(stdout, p)
		}
		st := newMonState(*width)
		st.observe(p, 0)
		fmt.Fprint(stdout, render(p, st, "tail "+*tail))
		return nil
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if *validate {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
		}
		if err := export.ValidateText(resp.Body); err != nil {
			return fmt.Errorf("invalid Prometheus exposition: %w", err)
		}
		fmt.Fprintf(stdout, "qppmon: %s/metrics is valid Prometheus text exposition\n", base)
		return nil
	}

	st := newMonState(*width)
	live := !*once && *frames == 0 // interactive: redraw in place
	for frame := 0; ; frame++ {
		p, err := fetchPayload(base)
		if err != nil {
			if *once {
				return err
			}
			fmt.Fprintf(stderr, "qppmon: %v (retrying)\n", err)
		} else if *jsonOut {
			if err := writeJSON(stdout, p); err != nil {
				return err
			}
		} else {
			st.observe(p, interval.Seconds())
			out := render(p, st, base)
			if live {
				fmt.Fprint(stdout, "\x1b[H\x1b[2J")
			}
			fmt.Fprint(stdout, out)
		}
		if *once || (*frames > 0 && frame+1 >= *frames) {
			return nil
		}
		time.Sleep(*interval)
	}
}

// writeJSON emits the payload as one indented JSON document — the
// machine-readable mode scripts pipe into jq instead of scraping the
// rendered dashboard.
func writeJSON(w io.Writer, p *export.Payload) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

func fetchPayload(base string) (*export.Payload, error) {
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics.json: status %d", resp.StatusCode)
	}
	var p export.Payload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, fmt.Errorf("decode /metrics.json: %w", err)
	}
	return &p, nil
}

// monState keeps bounded per-series history across polls so each frame can
// show a trend sparkline: counter rates, gauge values, histogram p99s.
type monState struct {
	width int
	polls int
	prev  map[string]int64 // previous counter values, for rates
	rate  map[string]float64
	hist  map[string][]float64
}

func newMonState(width int) *monState {
	if width < 4 {
		width = 4
	}
	return &monState{
		width: width,
		prev:  make(map[string]int64),
		rate:  make(map[string]float64),
		hist:  make(map[string][]float64),
	}
}

func (st *monState) push(series string, v float64) {
	h := append(st.hist[series], v)
	if len(h) > st.width {
		h = h[len(h)-st.width:]
	}
	st.hist[series] = h
}

// observe folds one polled payload into the trend history. dt is the poll
// interval in seconds (0 for one-shot renders, where rates are unknown).
func (st *monState) observe(p *export.Payload, dt float64) {
	st.polls++
	for name, v := range p.Counters {
		if dt > 0 && st.polls > 1 {
			st.rate[name] = float64(v-st.prev[name]) / dt
		}
		st.prev[name] = v
		st.push("counter:"+name, float64(v))
	}
	for name, v := range p.Gauges {
		st.push("gauge:"+name, v)
	}
	for name, h := range p.Histograms {
		st.push("hist:"+name, h.P99)
	}
}

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals (most recent last) as a fixed-height unicode bar
// strip at most width cells wide, scaled to the min..max of the shown
// values. A flat series renders at the lowest level.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		lvl := 0
		if hi > lo {
			lvl = int((v - lo) / (hi - lo) * float64(len(sparkLevels)-1))
			if lvl < 0 {
				lvl = 0
			}
			if lvl >= len(sparkLevels) {
				lvl = len(sparkLevels) - 1
			}
		}
		out[i] = sparkLevels[lvl]
	}
	return string(out)
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// heatPanel renders the workload-heat gauges (heat.*, published by the
// heat sketches) as a dedicated drift panel, or "" when the endpoint
// publishes none. The drift line tracks the recent (EWMA) drift trend —
// the alerting signal — next to the cumulative score.
func heatPanel(p *export.Payload, st *monState) string {
	g := p.Gauges
	if _, ok := g["heat.accesses"]; !ok {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n%s\n", "workload heat")
	fmt.Fprintf(&b, "  %-32s %12.0f\n", "accesses", g["heat.accesses"])
	fmt.Fprintf(&b, "  %-32s %12.0f\n", "messages", g["heat.messages"])
	fmt.Fprintf(&b, "  %-32s %12.0f\n", "epochs", g["heat.epochs"])
	fmt.Fprintf(&b, "  %-32s %12.4f  %s\n", "drift TV (cumulative)",
		g["heat.drift_tv"], sparkline(st.hist["gauge:heat.drift_tv"], st.width))
	fmt.Fprintf(&b, "  %-32s %12.4f  %s\n", "drift TV (recent, EWMA)",
		g["heat.drift_recent_tv"], sparkline(st.hist["gauge:heat.drift_recent_tv"], st.width))
	if c, ok := g["heat.drift_top_client"]; ok {
		fmt.Fprintf(&b, "  %-32s %12.0f  (%.0f%% of drift)\n", "top drifting client", c, 100*g["heat.drift_top_share"])
	}
	if c, ok := g["heat.hot_client"]; ok {
		fmt.Fprintf(&b, "  %-32s %12.0f  (%.1f%% of accesses)\n", "hot client", c, 100*g["heat.hot_client_share"])
	}
	if c, ok := g["heat.hot_node"]; ok {
		fmt.Fprintf(&b, "  %-32s %12.0f  (%.1f%% of messages)\n", "hot node", c, 100*g["heat.hot_node_share"])
	}
	return b.String()
}

// render draws one dashboard frame.
func render(p *export.Payload, st *monState, source string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "qppmon — %s   up %.1fs   poll %d\n", source, p.UptimeSeconds, st.polls)

	if len(p.Counters) > 0 {
		fmt.Fprintf(&b, "\n%-34s %12s %10s  %s\n", "counters", "total", "rate/s", "trend")
		for _, name := range sortedNames(p.Counters) {
			rate := "-"
			if r, ok := st.rate[name]; ok {
				rate = fmt.Sprintf("%.1f", r)
			}
			fmt.Fprintf(&b, "  %-32s %12d %10s  %s\n",
				name, p.Counters[name], rate, sparkline(st.hist["counter:"+name], st.width))
		}
	}
	heat := heatPanel(p, st)
	if len(p.Gauges) > 0 {
		wrote := false
		for _, name := range sortedNames(p.Gauges) {
			if heat != "" && strings.HasPrefix(name, "heat.") {
				continue // shown in the workload-heat panel below
			}
			if !wrote {
				fmt.Fprintf(&b, "\n%-34s %12s  %s\n", "gauges", "value", "trend")
				wrote = true
			}
			fmt.Fprintf(&b, "  %-32s %12.4g  %s\n",
				name, p.Gauges[name], sparkline(st.hist["gauge:"+name], st.width))
		}
	}
	b.WriteString(heat)
	if len(p.Histograms) > 0 {
		fmt.Fprintf(&b, "\n%-34s %9s %9s %9s %9s %9s  %s\n",
			"histograms", "count", "p50", "p99", "p99.9", "max", "p99 trend")
		for _, name := range sortedNames(p.Histograms) {
			h := p.Histograms[name]
			fmt.Fprintf(&b, "  %-32s %9d %9.4g %9.4g %9.4g %9.4g  %s\n",
				name, h.Count, h.P50, h.P99, h.P999, h.Max, sparkline(st.hist["hist:"+name], st.width))
		}
	}
	if len(p.Spans) > 0 {
		// Busiest span paths first; cap the panel so deep traces fit a
		// terminal.
		names := sortedNames(p.Spans)
		sort.SliceStable(names, func(i, j int) bool {
			return p.Spans[names[i]].TotalSeconds > p.Spans[names[j]].TotalSeconds
		})
		const maxRows = 12
		shown := names
		if len(shown) > maxRows {
			shown = shown[:maxRows]
		}
		fmt.Fprintf(&b, "\n%-50s %9s %11s %11s\n", "spans", "count", "total_s", "max_s")
		for _, name := range shown {
			r := p.Spans[name]
			fmt.Fprintf(&b, "  %-48s %9d %11.6f %11.6f\n", name, r.Count, r.TotalSeconds, r.MaxSeconds)
		}
		if len(names) > maxRows {
			fmt.Fprintf(&b, "  … %d more span paths\n", len(names)-maxRows)
		}
	}
	return b.String()
}

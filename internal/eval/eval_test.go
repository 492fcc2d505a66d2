package eval

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"quorumplace/internal/heat"
	"quorumplace/internal/netsim"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:       "T",
		Title:    "demo",
		PaperRef: "Theorem X",
		Columns:  []string{"a", "longcolumn"},
		Notes:    []string{"a note"},
	}
	tab.AddRow("1", "2")
	out := tab.Render()
	for _, want := range []string{"T — demo", "reproduces: Theorem X", "a  longcolumn", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b"}}
	tab.AddRow("1", "x,y")
	csv := tab.CSV()
	if csv != "a,b\n1,\"x,y\"\n" {
		t.Fatalf("CSV = %q", csv)
	}
}

func TestF(t *testing.T) {
	if F(1.23456789) != "1.235" {
		t.Fatalf("F(1.23456789) = %q", F(1.23456789))
	}
	if F(5) != "5" {
		t.Fatalf("F(5) = %q", F(5))
	}
}

// TestRunAllQuick runs the entire experiment suite in quick mode and
// verifies the paper bounds that every experiment reports. This is the
// repo's end-to-end reproduction smoke test.
func TestRunAllQuick(t *testing.T) {
	s := &Suite{Seed: 1, Quick: true}
	tables, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(Experiments()) {
		t.Fatalf("got %d tables, want %d", len(tables), len(Experiments()))
	}
	byID := map[string]*Table{}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("%s: row %v has %d cells, want %d", tab.ID, row, len(row), len(tab.Columns))
			}
		}
		byID[tab.ID] = tab
	}
	// The verification experiments must report a clean match everywhere.
	for _, id := range []string{"E6"} {
		for _, row := range byID[id].Rows {
			if row[len(row)-1] != "yes" {
				t.Errorf("%s: row %v did not match", id, row)
			}
		}
	}
	for _, row := range byID["E8"].Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("E8: shell layout lost: %v", row)
		}
	}
	for _, row := range byID["E9"].Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("E9: arrangement invariance failed: %v", row)
		}
	}
}

// TestE10PerClientPlantsFeasibleCapacities runs E10 in full mode at a seed
// whose per-client trials used to overflow capacities planted for the
// uniform strategy, leaving the brute force without a feasible placement.
func TestE10PerClientPlantsFeasibleCapacities(t *testing.T) {
	if _, err := (&Suite{Seed: 4}).E10Extensions(); err != nil {
		t.Fatal(err)
	}
}

// TestE19DriftLeadsRegression pins the observability claim of E19: the
// drift score rises strictly from the first skewed epoch while the
// simulated p99 stays flat for at least three epochs, and the final epoch
// shows a real tail regression. Deterministic per seed.
func TestE19DriftLeadsRegression(t *testing.T) {
	s := &Suite{Seed: 1, Quick: true}
	tab, err := s.E19HeatDrift()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("E19 has %d epochs, want >= 5", len(tab.Rows))
	}
	cell := func(row int, col int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
		if err != nil {
			t.Fatalf("row %d col %d %q: %v", row, col, tab.Rows[row][col], err)
		}
		return v
	}
	const tvCol, dp99Col = 2, 6
	for k := 1; k < len(tab.Rows); k++ {
		if cell(k, tvCol) <= cell(k-1, tvCol) {
			t.Errorf("drift TV not strictly rising at epoch %d: %v -> %v", k, cell(k-1, tvCol), cell(k, tvCol))
		}
	}
	// The drift signal is alertable (3x the apportionment noise floor)
	// while the tail is still flat...
	for k := 0; k <= 3; k++ {
		if cell(k, dp99Col) != 0 {
			t.Errorf("p99 regressed already at epoch %d: Δp99 = %v", k, cell(k, dp99Col))
		}
	}
	if tv := cell(3, tvCol); tv < 0.004 {
		t.Errorf("drift TV %v at epoch 3 below alertable level", tv)
	}
	// ...and the final epoch shows the regression drift predicted.
	if last := len(tab.Rows) - 1; cell(last, dp99Col) <= 0 {
		t.Errorf("no tail regression by epoch %d: Δp99 = %v", last, cell(last, dp99Col))
	}
}

// TestE20FlashCrowdParSeq pins the two claims of E20: every epoch's
// parallel run is bitwise identical to its workers=1 run, and the spike
// epochs actually move the mean delay (Δmean > 0 while the crowd holds,
// back near zero — different seed, so not exactly — after recovery).
// Deterministic per seed.
func TestE20FlashCrowdParSeq(t *testing.T) {
	s := &Suite{Seed: 1, Quick: true}
	tab, err := s.E20FlashCrowd()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("E20 has %d epochs, want 5", len(tab.Rows))
	}
	const dMeanCol, sameCol = 4, 6
	for k, row := range tab.Rows {
		if row[sameCol] != "yes" {
			t.Errorf("epoch %d: parallel run diverged from workers=1 (par=seq %q)", k, row[sameCol])
		}
	}
	cell := func(row int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[row][dMeanCol], 64)
		if err != nil {
			t.Fatalf("row %d Δmean %q: %v", row, tab.Rows[row][dMeanCol], err)
		}
		return v
	}
	for k := 1; k <= 2; k++ {
		if cell(k) <= 0 {
			t.Errorf("spike epoch %d shows no mean regression: Δmean = %v", k, cell(k))
		}
	}
	// The recovery epoch runs the baseline demand under a fresh seed, so
	// its Δmean is sampling noise — it must sit well under the spike shift.
	if spike, rec := cell(1), cell(4); !(abs(rec) < spike/4) {
		t.Errorf("recovery Δmean %v not well under spike Δmean %v", rec, spike)
	}
}

// TestE21DaemonDriftRamp pins the control-loop claims of E21: every epoch
// replays bitwise-identically across two full pipeline copies, the drift
// alert trips once the ramp holds and arms a re-plan cycle that actually
// moves elements, warm-started ticks appear within the run, and the
// simulated tail recovers after the cycle relative to its peak.
// Deterministic per seed.
func TestE21DaemonDriftRamp(t *testing.T) {
	s := &Suite{Seed: 1, Quick: true}
	tab, err := s.E21DaemonDriftRamp()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 6 {
		t.Fatalf("E21 has %d epochs, want >= 6", len(tab.Rows))
	}
	const alertCol, warmCol, movesCol, p99Col, replayCol = 3, 5, 6, 8, 9
	for k, row := range tab.Rows {
		if row[replayCol] != "yes" {
			t.Errorf("epoch %d: pipeline replay diverged (replay %q)", k, row[replayCol])
		}
	}
	cell := func(row, col int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
		if err != nil {
			t.Fatalf("row %d col %d %q: %v", row, col, tab.Rows[row][col], err)
		}
		return v
	}
	// The quiet baseline must not re-plan; the ramp must alert and move.
	if tab.Rows[0][alertCol] != "no" {
		t.Error("baseline epoch alerted")
	}
	var alerted, moved, warmed bool
	for k := range tab.Rows {
		alerted = alerted || tab.Rows[k][alertCol] == "yes"
		moved = moved || cell(k, movesCol) > 0
		warmed = warmed || tab.Rows[k][warmCol] == "yes"
	}
	if !alerted {
		t.Error("drift alert never tripped on the ramp")
	}
	if !moved {
		t.Error("re-plan cycle never moved an element")
	}
	if !warmed {
		t.Error("no warm-started tick in the run")
	}
	// Tail recovery: after the re-plan cycle the hot demand is served
	// closer than at the alert epoch's peak.
	var peak float64
	for k := range tab.Rows {
		if p := cell(k, p99Col); p > peak {
			peak = p
		}
	}
	if last := cell(len(tab.Rows)-1, p99Col); last >= peak {
		t.Errorf("sim p99 never recovered: final %v vs peak %v", last, peak)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{
		ID: "T", Title: "demo", PaperRef: "Thm X",
		Columns: []string{"a", "b"},
		Notes:   []string{"n1"},
	}
	tab.AddRow("1", "x|y")
	md := tab.Markdown()
	for _, want := range []string{"### T — demo", "| a | b |", "| --- | --- |", `x\|y`, "*note: n1*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestConcurrentSuitesKeepTheirTelemetry runs two suites at once, each
// with its own recorder and heat sketch, and checks that each sketch
// counts exactly its own suite's simulated accesses: the recorder and the
// sketch travel with the suite, so nothing routes one suite's
// simulations into the other's telemetry.
func TestConcurrentSuitesKeepTheirTelemetry(t *testing.T) {
	experiments := map[string]func(*Suite) (*Table, error){
		"E11": (*Suite).E11Netsim,
		"E15": (*Suite).E15Queueing,
	}
	newSuite := func() *Suite {
		return &Suite{
			Seed: 1, Quick: true,
			Recorder: netsim.NewRecorder(16, 1, 0),
			Heat:     heat.New(heat.Options{}),
		}
	}
	// Each experiment alone: every access reaches both sinks, since the
	// recorder traces every access and counts the ones its ring evicts.
	want := map[string]int64{}
	for id, run := range experiments {
		s := newSuite()
		if _, err := run(s); err != nil {
			t.Fatal(err)
		}
		want[id] = s.Heat.Accesses()
		if got := s.Recorder.Recorded(); got != want[id] {
			t.Fatalf("%s alone: recorder saw %d accesses, sketch %d", id, got, want[id])
		}
	}
	if want["E11"] == 0 || want["E15"] == 0 || want["E11"] == want["E15"] {
		t.Fatalf("solo access counts %v cannot tell the suites apart", want)
	}

	suites := map[string]*Suite{}
	var wg sync.WaitGroup
	for id, run := range experiments {
		s := newSuite()
		suites[id] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := run(s); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for id, s := range suites {
		if got := s.Heat.Accesses(); got != want[id] {
			t.Errorf("%s: sketch counted %d accesses, want its own %d", id, got, want[id])
		}
		if got := s.Recorder.Recorded(); got != want[id] {
			t.Errorf("%s: recorder traced %d accesses, want its own %d", id, got, want[id])
		}
	}
}

package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	qp "quorumplace"
)

func runQuorumd(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	return out.String(), errb.String(), err
}

// TestServerDeterministic pins the replay contract: two server-mode runs
// with the same flags produce identical stdout (the announced HTTP address
// goes to stderr precisely so port 0 cannot leak in).
func TestServerDeterministic(t *testing.T) {
	args := []string{"-nodes", "10", "-grid", "2", "-ticks", "6", "-accesses", "150", "-seed", "3"}
	outA, _, err := runQuorumd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	outB, _, err := runQuorumd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if outA != outB {
		t.Fatalf("tick logs differ between identical runs:\n--- A ---\n%s--- B ---\n%s", outA, outB)
	}
	if !strings.Contains(outA, "tick") || !strings.Contains(outA, "final:") {
		t.Fatalf("unexpected output:\n%s", outA)
	}
}

// TestServerWithAddr binds the control API during the tick loop, checks
// the bound address is announced on stderr, not stdout, and scrapes the
// daemon's counters from /metrics during -hold.
func TestServerWithAddr(t *testing.T) {
	var out, errOut syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-nodes", "10", "-grid", "2", "-ticks", "2", "-accesses", "50",
			"-addr", "127.0.0.1:0", "-hold", "2s"}, &out, &errOut)
	}()
	announced := regexp.MustCompile(`serving control API on (http://127\.0\.0\.1:\d+)`)
	var base string
	for i := 0; i < 300 && base == ""; i++ {
		if m := announced.FindStringSubmatch(errOut.String()); m != nil {
			base = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if base == "" {
		t.Fatalf("no address announcement on stderr:\n%s", errOut.String())
	}
	var body []byte
	for i := 0; i < 100 && !bytes.Contains(body, []byte("qpp_daemon_ticks_total 2")); i++ {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: %s: %s", resp.Status, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !bytes.Contains(body, []byte("qpp_daemon_ticks_total 2")) {
		t.Fatalf("/metrics never counted both ticks:\n%s", body)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "127.0.0.1") {
		t.Fatalf("bound address leaked into stdout:\n%s", out.String())
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the test reads stderr while
// run writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestClientFlow runs the client verbs against an in-process daemon.
func TestClientFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := qp.RandomGeometric(10, 0.6, rng)
	m, err := qp.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sys := qp.Grid(2)
	caps := make([]float64, 10)
	for i := range caps {
		caps[i] = 1.6
	}
	ins, err := qp.NewInstance(m, caps, sys, qp.Uniform(sys.NumQuorums()))
	if err != nil {
		t.Fatal(err)
	}
	initial, err := qp.RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	d, err := qp.NewDaemon(qp.DaemonConfig{Instance: ins, Initial: initial, Shards: 2, Lambda: 0.5, AlwaysReplan: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := d.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	out, _, err := runQuorumd(t, "-target", base, "-apply")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"seq": 0`) {
		t.Fatalf("apply output:\n%s", out)
	}
	if got := len(d.Ticks()); got != 1 {
		t.Fatalf("daemon ran %d ticks after -apply, want 1", got)
	}

	out, _, err = runQuorumd(t, "-target", base, "-set-lambda", "2.5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "lambda set to 2.5") || d.Lambda() != 2.5 {
		t.Fatalf("set-lambda failed: out=%q lambda=%v", out, d.Lambda())
	}
	if _, _, err := runQuorumd(t, "-target", base, "-set-lambda", "-1"); err == nil {
		t.Fatal("negative -set-lambda accepted")
	}

	out, _, err = runQuorumd(t, "-target", base, "-inspect")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shards 2", "λ=2.5", "ticks 1", "drift TV"} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}
}

// TestFlagValidation covers the rejection paths of both modes.
func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-inspect"},         // client verb without target
		{"-apply"},           //
		{"-set-lambda", "1"}, //
		{"-target", "http://x", "-inspect", "-apply"}, // two verbs
		{"-target", "http://x"},                       // no verb
		{"-ticks", "0"},                               // bad loop
		{"-ramp", "1.5"},                              // bad ramp
		{"-accesses", "-1"},                           //
		{"-nodes", "3", "-grid", "2"},                 // universe larger than network
		{"-grid", "0"},                                // empty grid
		{"positional"},                                // stray arg
	}
	for _, args := range cases {
		if _, _, err := runQuorumd(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

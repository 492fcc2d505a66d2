package export

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"quorumplace/internal/obs"
)

// TestCloseDrainsInflightScrape pins the clean-shutdown contract: a Close
// issued while a scrape is mid-flight must wait for it, and the client must
// receive the complete, syntactically valid exposition — no panic, no
// truncation. Run under -race in CI.
func TestCloseDrainsInflightScrape(t *testing.T) {
	c := demoCollector()
	inScrape := make(chan struct{}, 1) // buffered: the handler may enter before the test waits
	release := make(chan struct{})
	src := func() *obs.Snapshot {
		// Signal that a scrape has entered the handler, then hold it open
		// until the test has initiated Close.
		select {
		case inScrape <- struct{}{}:
		default:
		}
		<-release
		return c.Snapshot()
	}
	s, err := Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}

	type scrape struct {
		body string
		code int
		err  error
	}
	got := make(chan scrape, 1)
	go func() {
		resp, err := http.Get(s.URL())
		if err != nil {
			got <- scrape{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- scrape{body: string(body), code: resp.StatusCode, err: err}
	}()

	<-inScrape
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Give Close a moment to reach graceful-shutdown territory, then let
	// the scrape finish rendering.
	time.Sleep(20 * time.Millisecond)
	close(release)

	sc := <-got
	if sc.err != nil {
		t.Fatalf("in-flight scrape failed across Close: %v", sc.err)
	}
	if sc.code != http.StatusOK {
		t.Fatalf("in-flight scrape status %d", sc.code)
	}
	if err := ValidateText(strings.NewReader(sc.body)); err != nil {
		t.Fatalf("drained scrape returned a truncated/invalid exposition: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Idempotent: a second Close returns the same (nil) result.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := http.Get(s.URL()); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// TestServeContextCancel checks that cancelling the serve context shuts the
// server down without an explicit Close.
func TestServeContextCancel(t *testing.T) {
	c := demoCollector()
	ctx, cancel := context.WithCancel(context.Background())
	s, err := ServeContext(ctx, "127.0.0.1:0", func() *obs.Snapshot { return c.Snapshot() })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(s.URL()); err != nil {
		t.Fatalf("pre-cancel scrape: %v", err)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(s.URL()); err != nil {
			break // listener is down
		}
		if time.Now().After(deadline) {
			t.Fatal("server still serving after context cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Close after context shutdown stays clean.
	if err := s.Close(); err != nil {
		t.Fatalf("Close after cancel: %v", err)
	}
}

// TestShutdownDeadlineSevers checks that a scrape outliving the drain
// window is severed rather than hanging Shutdown forever.
func TestShutdownDeadlineSevers(t *testing.T) {
	c := demoCollector()
	inScrape := make(chan struct{}, 1) // buffered: the handler may enter before the test waits
	release := make(chan struct{})
	src := func() *obs.Snapshot {
		select {
		case inScrape <- struct{}{}:
		default:
		}
		<-release
		return c.Snapshot()
	}
	s, err := Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)
	errCh := make(chan error, 1)
	go func() {
		_, err := http.Get(s.URL())
		errCh <- err
	}()
	<-inScrape
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown reported success despite an undrained scrape")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Shutdown took %v; the expired drain should sever promptly", elapsed)
	}
	if err := <-errCh; err == nil {
		t.Fatal("severed scrape still returned a response")
	}
}

package veritas_test

// Self-protection of the facade's listeners: Campaign.Serve and the
// fleet listener are both built by serve.NewServer, so a request whose
// headers run past the module's header cap is refused with 431 instead
// of being buffered.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"veritas"
)

// oversizedHeaderStatus sends one GET with a 128 KiB header — twice the
// module's header cap, an eighth of net/http's default — and returns
// the status line. It retries the dial for a while so it can be pointed
// at a listener that is still coming up.
func oversizedHeaderStatus(t *testing.T, addr string) string {
	t.Helper()
	var conn net.Conn
	var err error
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listener on %s never came up: %v", addr, err)
		}
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	// The server answers as soon as it has read past its cap, so write
	// and read concurrently; a write error after that is expected.
	go fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: %s\r\n\r\n", strings.Repeat("a", 128<<10))
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the status line: %v", err)
	}
	return strings.TrimSpace(status)
}

func TestCampaignServeRefusesOversizedHeaders(t *testing.T) {
	c, err := veritas.NewCampaign(append(quickOptions(), veritas.WithStore(t.TempDir()))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Reserve a loopback port, release it, and serve on it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Serve(ctx, addr) }()
	if got := oversizedHeaderStatus(t, addr); !strings.Contains(got, " 431 ") {
		t.Errorf("Campaign.Serve answered %q to a 128 KiB header, want 431", got)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("Serve after cancel: %v", err)
	}
}

func TestFleetListenerRefusesOversizedHeaders(t *testing.T) {
	ready := make(chan string, 1)
	c, err := veritas.NewCampaign(append(quickOptions(),
		veritas.WithStore(filepath.Join(t.TempDir(), "fleet.store")),
		veritas.WithFleet("127.0.0.1:0"),
		veritas.WithFleetReady(func(addr string) { ready <- addr }),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.ServeFleet(ctx, 2)
		done <- err
	}()
	select {
	case addr := <-ready:
		if got := oversizedHeaderStatus(t, addr); !strings.Contains(got, " 431 ") {
			t.Errorf("fleet listener answered %q to a 128 KiB header, want 431", got)
		}
	case err := <-done:
		t.Fatalf("ServeFleet returned before serving: %v", err)
	}
	// No agent ever joins: cancelling is how this dispatch ends.
	cancel()
	if err := <-done; err == nil {
		t.Error("ServeFleet with no agents returned nil after cancel")
	}
}

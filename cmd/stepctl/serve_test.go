package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestServeDisconnectsSlowHeaders: a client that trickles its request
// headers is disconnected once the header timeout passes (the server
// closes the connection, so the client's read ends well before its own
// deadline), while a well-behaved request on the same server is
// answered.
func TestServeDisconnectsSlowHeaders(t *testing.T) {
	srv := newServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server timeouts unset: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("read/write timeouts would cut long-polls and streams: read %v, write %v", srv.ReadTimeout, srv.WriteTimeout)
	}
	// Same server, shorter header deadline, so the test runs in well
	// under a second instead of waiting out the production value.
	const headerTimeout = 200 * time.Millisecond
	srv.ReadHeaderTimeout = headerTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("normal request: body %q", body)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Trickle one header byte every 20ms: the header would take seconds
	// to complete, far past the timeout. The writer stops at its first
	// failed write, at the latest once conn is closed below.
	trickled := make(chan struct{})
	defer func() {
		conn.Close()
		<-trickled
	}()
	go func() {
		defer close(trickled)
		req := "GET / HTTP/1.1\r\nHost: localhost\r\nX-Slow: " + strings.Repeat("a", 200) + "\r\n\r\n"
		for i := 0; i < len(req); i++ {
			if _, err := conn.Write([]byte{req[i]}); err != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	const give = 5 * time.Second
	start := time.Now()
	conn.SetReadDeadline(start.Add(give))
	got, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("slow-header client still connected after %v", give)
	}
	// net/http may send an error status before closing; it must never
	// serve the request.
	if strings.Contains(string(got), "200 OK") {
		t.Fatalf("slow-header request was served: %q", got)
	}
	if elapsed < headerTimeout {
		t.Fatalf("disconnected after %v, before the %v header timeout", elapsed, headerTimeout)
	}
}

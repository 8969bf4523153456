package faults_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestParseSchedule pins the script grammar, repeat counts included.
func TestParseSchedule(t *testing.T) {
	s, err := faults.ParseSchedule("ok,drop*2,delay=250ms,reset@2048,truncate@512,503*2")
	if err != nil {
		t.Fatal(err)
	}
	want := []faults.Fault{
		{Kind: faults.Pass},
		{Kind: faults.Drop}, {Kind: faults.Drop},
		{Kind: faults.Delay, Delay: 250 * time.Millisecond},
		{Kind: faults.Reset, After: 2048},
		{Kind: faults.Truncate, After: 512},
		{Kind: faults.Status, Code: 503}, {Kind: faults.Status, Code: 503},
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("step %d = %+v, want %+v", i, got, w)
		}
	}
	// Exhausted schedules pass everything through.
	if got := s.Next(); got.Kind != faults.Pass {
		t.Fatalf("post-script step = %+v, want pass", got)
	}
	if s.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", s.Remaining())
	}

	for _, bad := range []string{
		"nope", "reset@", "reset@-1", "truncate@x", "delay=", "delay=-1s",
		"404", "ok,", "503*0", "503*x",
	} {
		if _, err := faults.ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted a malformed schedule", bad)
		}
	}
	// Empty scripts and nil schedules are all-pass.
	empty, err := faults.ParseSchedule("")
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.Next(); got.Kind != faults.Pass {
		t.Fatalf("empty schedule step = %+v", got)
	}
	var nilSched *faults.Schedule
	if got := nilSched.Next(); got.Kind != faults.Pass {
		t.Fatalf("nil schedule step = %+v", got)
	}
}

// TestRoundTripperFaults drives every fault kind through a real server
// and asserts the client-visible error shape matches what a genuinely
// flaky peer produces.
func TestRoundTripperFaults(t *testing.T) {
	payload := strings.Repeat("x", 1024)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, payload)
	}))
	defer ts.Close()

	sched := faults.NewSchedule(
		faults.Fault{Kind: faults.Drop},
		faults.Fault{Kind: faults.Status, Code: 503},
		faults.Fault{Kind: faults.Reset, After: 100},
		faults.Fault{Kind: faults.Truncate, After: 100},
		faults.Fault{Kind: faults.Pass},
	)
	client := &http.Client{Transport: &faults.RoundTripper{Schedule: sched}}

	// Drop: connection refused at dial.
	_, err := client.Get(ts.URL)
	if err == nil || !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("drop fault error = %v, want ECONNREFUSED", err)
	}

	// 5xx: a parseable response, no transport error.
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status fault code = %d, want 503", resp.StatusCode)
	}

	// Reset: body read dies with ECONNRESET after the budget.
	resp, err = client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("reset fault read error = %v, want ECONNRESET", err)
	}
	if len(body) != 100 {
		t.Fatalf("reset fault delivered %d bytes, want 100", len(body))
	}

	// Truncate: clean EOF after the budget — no error at all.
	resp, err = client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("truncate fault read error = %v, want clean EOF", err)
	}
	if len(body) != 100 {
		t.Fatalf("truncate fault delivered %d bytes, want 100", len(body))
	}

	// Pass: the full payload.
	resp, err = client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != payload {
		t.Fatalf("pass-through delivered %d bytes, want %d", len(body), len(payload))
	}
}

// TestRoundTripperMatch: non-matching requests bypass the schedule
// entirely — probes sharing the client must not eat dispatch faults.
func TestRoundTripperMatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer ts.Close()
	sched := faults.NewSchedule(faults.Fault{Kind: faults.Drop})
	client := &http.Client{Transport: &faults.RoundTripper{
		Schedule: sched,
		Match:    func(r *http.Request) bool { return r.URL.Path == "/faulted" },
	}}
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("non-matching request faulted: %v", err)
	}
	resp.Body.Close()
	if sched.Served() != 0 {
		t.Fatalf("non-matching request consumed a schedule step")
	}
	if _, err := client.Get(ts.URL + "/faulted"); err == nil {
		t.Fatal("matching request dodged the scripted drop")
	}
}

// TestProxyFaults runs the TCP proxy in front of a real HTTP server:
// drop, 5xx, truncate and pass behave per-connection as scripted.
func TestProxyFaults(t *testing.T) {
	payload := strings.Repeat("y", 2048)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, payload)
	}))
	defer ts.Close()
	target := strings.TrimPrefix(ts.URL, "http://")

	sched, err := faults.ParseSchedule("drop,503,truncate@64,ok")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faults.NewProxy("127.0.0.1:0", target, sched)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// One connection per request: keep-alive would reuse the faulted
	// connection and desync the per-connection script.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	base := "http://" + proxy.Addr()

	if _, err := client.Get(base); err == nil {
		t.Fatal("dropped connection produced a response")
	}

	resp, err := client.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("proxy 5xx fault code = %d, want 503", resp.StatusCode)
	}

	// Truncated connection: the response dies mid-body (the proxy cut
	// it before the server finished writing).
	resp, err = client.Get(base)
	if err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && len(body) == len(payload) {
			t.Fatal("truncated connection delivered the full payload")
		}
	}

	resp, err = client.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != payload {
		t.Fatalf("pass-through connection failed: err=%v bytes=%d", err, len(body))
	}
	if proxy.Accepted() < 4 {
		t.Fatalf("accepted = %d, want >= 4", proxy.Accepted())
	}
}

// TestProxyStatusWaitsForRequest pins that a CODE step answers the
// request, not the connection: no byte arrives before the client writes
// a request, and a POST's body is read before the 5xx goes out.
func TestProxyStatusWaitsForRequest(t *testing.T) {
	sched, err := faults.ParseSchedule("503")
	if err != nil {
		t.Fatal(err)
	}
	// A CODE step never dials, so the target needs no listener.
	proxy, err := faults.NewProxy("127.0.0.1:0", "127.0.0.1:1", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	conn, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var b [1]byte
	conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
	n, err := conn.Read(b[:])
	var ne net.Error
	if n > 0 || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("proxy sent %q (err %v) before any request", b[:n], err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	body := `{"runs":1}`
	fmt.Fprintf(conn, "POST /v1/runs/execute HTTP/1.1\r\nHost: worker\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

// TestProxyReset pins the RST path at the raw TCP level: a reset@N
// connection delivers N bytes then a read error (not a clean EOF).
func TestProxyReset(t *testing.T) {
	// A raw TCP server that waits for one request byte (so the client's
	// dial settles before any fault can fire), writes 1 KiB, then holds
	// the connection open — the only way the client's read ends is the
	// proxy's cut.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				one := make([]byte, 1)
				if _, err := io.ReadFull(c, one); err != nil {
					return
				}
				c.Write(make([]byte, 1024))
				<-hold
			}(conn)
		}
	}()

	sched := faults.NewSchedule(faults.Fault{Kind: faults.Reset, After: 256})
	proxy, err := faults.NewProxy("127.0.0.1:0", ln.Addr().String(), sched)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	conn, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{'!'}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if err == nil && len(got) > 256 {
		t.Fatalf("reset connection delivered %d bytes cleanly, want cut at 256", len(got))
	}
	if len(got) > 256 {
		t.Fatalf("reset connection delivered %d bytes, want <= 256", len(got))
	}
}

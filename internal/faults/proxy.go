package faults

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a scripted-fault TCP proxy: it accepts connections, applies
// one schedule step per connection, and otherwise pipes bytes to the
// target untouched. It is the out-of-process face of the harness — the
// chaos CI smoke puts one in front of each worker koalad so a
// coordinator built with zero test hooks still meets drops, resets,
// delays and 5xx bursts on real sockets.
//
// Fault semantics at the connection level:
//
//	ok           pipe both directions until either side closes
//	drop         close the accepted connection without dialing the target
//	delay=DUR    sleep DUR before dialing the target, then pipe
//	reset@N      pipe, then hard-reset the client (RST, via SO_LINGER 0)
//	             after N target->client bytes
//	truncate@N   pipe, then close the client cleanly after N
//	             target->client bytes
//	CODE         read the client's request (header and body), then write
//	             a raw HTTP CODE response and close, without dialing
//	             the target (valid for HTTP traffic only)
type Proxy struct {
	target   string
	schedule *Schedule

	ln       net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
	accepted atomic.Int64
}

// NewProxy starts a proxy on listenAddr ("127.0.0.1:0" for an ephemeral
// port) forwarding to target ("host:port"). Close releases it.
func NewProxy(listenAddr, target string, schedule *Schedule) (*Proxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("faults: proxy listen %s: %w", listenAddr, err)
	}
	p := &Proxy{target: target, schedule: schedule, ln: ln}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Accepted reports how many connections the proxy has accepted.
func (p *Proxy) Accepted() int64 { return p.accepted.Load() }

// Close stops accepting and waits for in-flight connections to finish
// piping (they end when either endpoint closes).
func (p *Proxy) Close() error {
	p.closed.Store(true)
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.accepted.Add(1)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.serve(conn)
		}()
	}
}

func (p *Proxy) serve(client net.Conn) {
	defer client.Close()
	f := p.schedule.Next()
	switch f.Kind {
	case Drop:
		return
	case Status:
		// Answer the request, not the connection: a response written
		// before the request arrives reaches an http.Client as an
		// unsolicited response on an idle connection, which fails the
		// request with a transport error instead of this 5xx. The
		// response goes out whether or not the request read cleanly
		// before the deadline.
		if err := client.SetReadDeadline(time.Now().Add(5 * time.Second)); err == nil {
			if req, err := http.ReadRequest(bufio.NewReader(client)); err == nil {
				_, _ = io.Copy(io.Discard, req.Body)
				req.Body.Close()
			}
		}
		// A raw, well-formed HTTP response so an http.Client parses a
		// real 5xx instead of a protocol error.
		fmt.Fprintf(client, "HTTP/1.1 %d %s\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
			f.Code, http.StatusText(f.Code))
		return
	case Delay:
		time.Sleep(f.Delay)
	}

	upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		return // target down: the client sees its connection close
	}
	defer upstream.Close()

	done := make(chan struct{}, 2)
	// client -> target: always unrestricted (requests are small; the
	// interesting faults are on the response path).
	go func() {
		_, _ = io.Copy(upstream, client)
		if tc, ok := upstream.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	// target -> client, budgeted when the fault cuts the stream.
	go func() {
		switch f.Kind {
		case Reset:
			_, _ = io.CopyN(client, upstream, int64(f.After))
			if tc, ok := client.(*net.TCPConn); ok {
				_ = tc.SetLinger(0) // close sends RST, not FIN
			}
			client.Close()
		case Truncate:
			_, _ = io.CopyN(client, upstream, int64(f.After))
			client.Close()
		default:
			_, _ = io.Copy(client, upstream)
			if tc, ok := client.(*net.TCPConn); ok {
				_ = tc.CloseWrite()
			}
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}

package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The koalad-mixed workload runs a koalad daemon and drives it over HTTP
// as an open loop: two seeded Poisson schedules, one connection each.
// "hot" re-POSTs a pool of configs the set-up already ran (answered from
// the cache and replayed to their summary event); "cold" POSTs unique
// paper-preset configs and follows each to its summary. Every request is
// timed from when it was due.

const (
	hotRate  = 100.0 // hot requests per second
	coldRate = 20.0  // cold requests per second
	hotPool  = 16    // distinct hot configs
	// repsPerConfig is the replication count of every submitted config.
	repsPerConfig = 2
	// checkEvery picks the cold requests whose summaries are checked
	// against an in-process run and whose traces are read.
	checkEvery = 10
)

// paperSpec is paper config k mod 8: a preset workload (Wm, Wmr under
// PRA; W'm, W'mr under PWA with the PWA background) under FPSMA or EGS.
func paperSpec(k int, seed uint64) experiment.ConfigSpec {
	spec := experiment.ConfigSpec{
		Workload: experiment.WorkloadSpec{Preset: [4]string{"Wm", "Wmr", "W'm", "W'mr"}[k%4]},
		Policy:   [2]string{"FPSMA", "EGS"}[(k/4)%2],
		Approach: "PRA",
		Runs:     repsPerConfig,
		Seed:     seed,
	}
	if k%4 >= 2 {
		spec.Approach = "PWA"
		bg := experiment.PWABackground()
		spec.Background = &experiment.BackgroundSpec{
			MeanInterArrival: bg.MeanInterArrival, MeanDuration: bg.MeanDuration, MaxNodes: bg.MaxNodes,
		}
	}
	return spec
}

// hotSpec and coldSpec draw config seeds from disjoint ranges, so every
// cold config of a run is distinct from every other and from the pool.
func hotSpec(seed uint64, j int) experiment.ConfigSpec {
	return paperSpec(j, seed*100_000+90_000+uint64(j))
}

func coldSpec(seed uint64, i int, pick uint64) experiment.ConfigSpec {
	return paperSpec(int(pick%8), seed*100_000+uint64(i))
}

// daemon is one koalad process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	logs    bytes.Buffer // written by exec until the process exits
	exited  chan struct{}
}

func startDaemon(o options, pprof bool) (*daemon, error) {
	dir, err := os.MkdirTemp(o.workdir, "koalad-data-")
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	// -retain keeps every run of a window resident: evicting one between
	// a POST and its events GET would be a 404, a failed request.
	args := []string{"-addr", addr, "-data-dir", dir, "-queue", "64", "-retain", "4096", "-log-level", "warn"}
	if pprof {
		args = append(args, "-pprof")
	}
	d := &daemon{cmd: exec.Command(o.koalad, args...), base: "http://" + addr, dataDir: dir, exited: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = &d.logs, &d.logs
	// Should the benchmark itself be killed, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting koalad: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			os.RemoveAll(dir)
			return nil, fmt.Errorf("koalad exited during start-up: %s", d.logs.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("koalad did not become healthy")
		}
	}
}

// stop terminates the daemon, waits for it, removes its data dir and
// returns its peak resident set size.
func (d *daemon) stop() (maxRSSKB int64) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	os.RemoveAll(d.dataDir)
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

// cpu is the daemon's user+system CPU time so far, from /proc.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the command name: state is field 3, utime 14, stime 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(utime+stime) * tick, nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newConn is an HTTP client that holds at most one connection.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// request is one timed exchange: POST a config, then read its events to
// the summary.
type request struct {
	late     time.Duration // sent after max(due, previous request done)
	submit   time.Duration // due -> POST answered
	terminal time.Duration // due -> summary received
	fail     string        // "", "refused", "gone", "error" or "mismatch"
	id       string
	digest   [32]byte // SHA-256 of the summary's bytes
}

// exchange POSTs body and follows the run's events to its summary. It
// never retries: a 429 is "refused", a 404 on the events "gone".
func exchange(c *http.Client, base string, body []byte) (r request, submitted time.Time) {
	resp, err := c.Post(base+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		r.fail = "error"
		return r, time.Now()
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	submitted = time.Now()
	switch {
	case err != nil:
		r.fail = "error"
	case resp.StatusCode == http.StatusTooManyRequests:
		r.fail = "refused"
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		r.fail = "error"
	}
	if r.fail != "" {
		return r, submitted
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &sub); err != nil || sub.ID == "" {
		r.fail = "error"
		return r, submitted
	}
	r.id = sub.ID

	resp, err = c.Get(base + "/v1/experiments/" + sub.ID + "/events")
	if err != nil {
		r.fail = "error"
		return r, submitted
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		r.fail = "gone"
		io.Copy(io.Discard, resp.Body)
		return r, submitted
	}
	if resp.StatusCode != http.StatusOK {
		r.fail = "error"
		io.Copy(io.Discard, resp.Body)
		return r, submitted
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	got := false
	for sc.Scan() {
		var ev struct {
			Type    string          `json:"type"`
			Summary json.RawMessage `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			r.fail = "error"
			break
		}
		switch ev.Type {
		case "summary":
			r.digest, got = sha256.Sum256(ev.Summary), true
		case "error":
			r.fail = "error"
		}
	}
	if sc.Err() != nil || (!got && r.fail == "") {
		r.fail = "error"
	}
	return r, submitted
}

// runClass sends one class's schedule over one connection, each request
// when it is due (or as soon as the previous one is done).
func runClass(base string, sched []arrival, bodies [][]byte, start time.Time) []request {
	c := newConn()
	defer c.CloseIdleConnections()
	out := make([]request, len(sched))
	var prevDone time.Duration
	for i, a := range sched {
		if wait := time.Until(start.Add(a.Due)); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Since(start)
		r, submitted := exchange(c, base, bodies[i])
		r.late = sent - max(a.Due, prevDone)
		r.submit = submitted.Sub(start) - a.Due
		prevDone = time.Since(start)
		r.terminal = prevDone - a.Due
		out[i] = r
	}
	return out
}

// koaladPass is one measured window against one daemon.
type koaladPass struct {
	setups        []float64 // seconds
	hot, cold     []request
	wall, cpu     time.Duration
	before, after promSnapshot
	maxRSSKB      int64
	prof          []byte // CPU profile of the daemon (traced only)
	memBefore     map[string]float64
	memAfter      map[string]float64
	heapPeak      float64
	spans         map[string][]float64 // sampled cold runs' span lengths, ms
	life          map[string][]float64 // sampled cold runs' lifecycle timings, ms
}

func (p *koaladPass) all() []request { return append(append([]request(nil), p.hot...), p.cold...) }

// done counts the requests that completed without failing.
func (p *koaladPass) done() int {
	n := 0
	for _, r := range p.all() {
		if r.fail == "" {
			n++
		}
	}
	return n
}

// koaladLoad is the seeded input of a run: both schedules and the bodies
// they send.
type koaladLoad struct {
	hotSched, coldSched   []arrival
	hotBodies, coldBodies [][]byte
	pool                  [][]byte
}

func newKoaladLoad(seed uint64, window time.Duration) (*koaladLoad, error) {
	l := &koaladLoad{
		hotSched:  poissonSchedule(seed, "hot", hotRate, window),
		coldSched: poissonSchedule(seed, "cold", coldRate, window),
	}
	for j := 0; j < hotPool; j++ {
		b, err := json.Marshal(hotSpec(seed, j))
		if err != nil {
			return nil, err
		}
		l.pool = append(l.pool, b)
	}
	for _, a := range l.hotSched {
		l.hotBodies = append(l.hotBodies, l.pool[a.Pick%hotPool])
	}
	for i, a := range l.coldSched {
		b, err := json.Marshal(coldSpec(seed, i, a.Pick))
		if err != nil {
			return nil, err
		}
		l.coldBodies = append(l.coldBodies, b)
	}
	return l, nil
}

// setup starts a daemon and runs the hot pool once, so that the window's
// hot requests are cache hits. It returns the CPU time the set-up took in
// both processes (see setupRepeats).
func (l *koaladLoad) setup(o options, pprof bool) (*daemon, time.Duration, error) {
	t := processCPU()
	d, err := startDaemon(o, pprof)
	if err != nil {
		return nil, 0, err
	}
	c := newConn()
	defer c.CloseIdleConnections()
	for j, b := range l.pool {
		if r, _ := exchange(c, d.base, b); r.fail != "" {
			d.stop()
			return nil, 0, fmt.Errorf("warming hot config %d: %s", j, r.fail)
		}
	}
	daemonCPU, err := d.cpu()
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, processCPU() - t + daemonCPU, nil
}

func scrape(tr *tracer, base string) (promSnapshot, error) {
	defer tr.end(tr.start("GET /metrics", -1))
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// memStats reads the daemon's runtime.MemStats from the text heap
// profile ("# Name = value" lines).
func memStats(tr *tracer, base string) (map[string]float64, error) {
	defer tr.end(tr.start("GET /debug/pprof/heap", -1))
	resp, err := http.Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			out[k] = f
		}
	}
	return out, sc.Err()
}

// measure runs one window. Traced, the daemon serves pprof: the pass
// profiles it over the window, samples its heap once a second, and reads
// the traces and lifecycle timings of the checked cold runs afterwards.
func (l *koaladLoad) measure(o options, tr *tracer, setups int) (*koaladPass, error) {
	traced := tr != nil
	p := &koaladPass{}
	var d *daemon
	for i := 0; i < setups; i++ {
		var took time.Duration
		var err error
		if d, took, err = l.setup(o, traced); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, took.Seconds())
		if i < setups-1 {
			d.stop()
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	var err error
	if p.before, err = scrape(tr, d.base); err != nil {
		return nil, err
	}
	var profErr error
	var wg sync.WaitGroup
	heapStop := make(chan struct{})
	if traced {
		if p.memBefore, err = memStats(tr, d.base); err != nil {
			return nil, err
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			p.prof, profErr = fetch(tr, "GET /debug/pprof/profile", fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.base, int(o.window.Seconds())))
		}()
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-heapStop:
					return
				case <-tick.C:
					if m, err := memStats(tr, d.base); err == nil {
						p.heapPeak = max(p.heapPeak, m["HeapAlloc"])
					}
				}
			}
		}()
	}
	stopSampling := sync.OnceFunc(func() {
		close(heapStop)
		wg.Wait()
	})
	defer stopSampling()
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var classes sync.WaitGroup
	classes.Add(2)
	go func() {
		defer classes.Done()
		p.hot = runClass(d.base, l.hotSched, l.hotBodies, start)
	}()
	go func() {
		defer classes.Done()
		p.cold = runClass(d.base, l.coldSched, l.coldBodies, start)
	}()
	classes.Wait()
	p.wall = time.Since(start)
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if traced {
		stopSampling()
		if profErr != nil {
			return nil, profErr
		}
		if p.memAfter, err = memStats(tr, d.base); err != nil {
			return nil, err
		}
		p.heapPeak = max(p.heapPeak, p.memBefore["HeapAlloc"], p.memAfter["HeapAlloc"])
		if err := p.readTraces(tr, d.base); err != nil {
			return nil, err
		}
	}
	if p.after, err = scrape(tr, d.base); err != nil {
		return nil, err
	}
	stopped = true
	p.maxRSSKB = d.stop()
	return p, nil
}

func fetch(tr *tracer, span, url string) ([]byte, error) {
	defer tr.end(tr.start(span, -1))
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// readTraces collects the span lengths and lifecycle timings of the
// checked cold runs.
func (p *koaladPass) readTraces(tr *tracer, base string) error {
	p.spans = map[string][]float64{}
	p.life = map[string][]float64{}
	for i, r := range p.cold {
		if i%checkEvery != 0 || r.fail != "" {
			continue
		}
		b, err := fetch(tr, "GET /v1/experiments/{id}/trace", base+"/v1/experiments/"+r.id+"/trace")
		if err != nil {
			return err
		}
		var tj obs.TraceJSON
		if err := json.Unmarshal(b, &tj); err != nil {
			return err
		}
		for _, s := range tj.Spans {
			p.spans[s.Name] = append(p.spans[s.Name], s.DurationSeconds()*1000)
		}
		if b, err = fetch(tr, "GET /v1/experiments/{id}", base+"/v1/experiments/"+r.id); err != nil {
			return err
		}
		var g struct {
			Timings struct {
				Queued float64 `json:"queued_seconds"`
				Run    float64 `json:"run_seconds"`
			} `json:"timings"`
		}
		if err := json.Unmarshal(b, &g); err != nil {
			return err
		}
		p.life["queued"] = append(p.life["queued"], g.Timings.Queued*1000)
		p.life["run"] = append(p.life["run"], g.Timings.Run*1000)
	}
	return nil
}

// verifier runs configs in process and remembers each one's expected
// summary digest. With a tracer it also times, as spans, the public calls
// a koalad run is made of, and collects the simulator's counters.
type verifier struct {
	tr    *tracer
	want  map[string][32]byte // body -> digest of EncodeSummary
	stats *obs.SimStats
	reps  int
}

func newVerifier(tr *tracer) *verifier {
	return &verifier{tr: tr, want: map[string][32]byte{}, stats: obs.NewSimStats()}
}

func (v *verifier) expect(body []byte) ([32]byte, error) {
	if d, ok := v.want[string(body)]; ok {
		return d, nil
	}
	spec, err := experiment.DecodeConfigSpec(bytes.NewReader(body))
	if err != nil {
		return [32]byte{}, err
	}
	cfg, err := spec.Config()
	if err != nil {
		return [32]byte{}, err
	}
	if v.tr != nil {
		if err := v.runTimed(cfg); err != nil {
			return [32]byte{}, err
		}
	}
	res, err := experiment.RunStream(cfg)
	if err != nil {
		return [32]byte{}, err
	}
	sp := v.tr.start("experiment.EncodeSummary", -1)
	enc, err := experiment.EncodeSummary(res.Summary())
	v.tr.end(sp)
	if err != nil {
		return [32]byte{}, err
	}
	d := sha256.Sum256(enc)
	v.want[string(body)] = d
	return d, nil
}

// runTimed runs cfg's replications through the public calls koalad's
// streaming path makes — Fingerprint, Prepare, RunOnce (with workload
// generation), the streaming aggregate — each inside a span.
func (v *verifier) runTimed(cfg experiment.Config) error {
	tr := v.tr
	sp := tr.start("experiment.Fingerprint", -1)
	_, err := experiment.Fingerprint(cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	cfg.SimStats = v.stats
	sp = tr.start("experiment.Prepare", -1)
	p, err := experiment.Prepare(cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	spec, err := workload.PrepareSpec(p.Config().Workload)
	if err != nil {
		return err
	}
	for i := 0; i < p.Config().Runs; i++ {
		seed := p.Config().Seed + uint64(i)
		sp = tr.start("workload.PreparedSpec.Generate", -1)
		spec.Generate(seed)
		tr.end(sp)
		sp = tr.start("experiment.Prepared.RunOnce", -1)
		r, err := p.RunOnce(seed)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.start("metrics.Aggregate", -1)
		a := metrics.NewAggregate()
		a.ObserveAll(r.Records)
		tr.end(sp)
		v.reps++
	}
	return nil
}

// check compares every hot request, and every checkEvery-th cold one,
// with the in-process summary of its config, marking mismatches.
func (v *verifier) check(l *koaladLoad, p *koaladPass) error {
	for i := range p.hot {
		r := &p.hot[i]
		if r.fail != "" {
			continue
		}
		want, err := v.expect(l.hotBodies[i])
		if err != nil {
			return err
		}
		if r.digest != want {
			r.fail = "mismatch"
		}
	}
	for i := range p.cold {
		r := &p.cold[i]
		if i%checkEvery != 0 || r.fail != "" {
			continue
		}
		want, err := v.expect(l.coldBodies[i])
		if err != nil {
			return err
		}
		if r.digest != want {
			r.fail = "mismatch"
		}
	}
	return nil
}

// failures counts a pass's failed requests by kind.
func failures(reqs []request) map[string]int {
	out := map[string]int{}
	for _, r := range reqs {
		if r.fail != "" {
			out[r.fail]++
		}
	}
	return out
}

func latencies(reqs []request, pick func(request) time.Duration) []float64 {
	var out []float64
	for _, r := range reqs {
		if r.fail == "" {
			out = append(out, ms(pick(r)))
		}
	}
	return out
}

func terminalOf(r request) time.Duration { return r.terminal }
func submitOf(r request) time.Duration   { return r.submit }
func lateOf(r request) time.Duration     { return r.late }

func runKoalad(o options) (*outcome, error) {
	out := &outcome{rep: newReport()}
	rep := out.rep
	load, err := newKoaladLoad(o.seed, o.window)
	if err != nil {
		return nil, err
	}
	rep.notef("open loop: hot %.0f/s over a pool of %d, cold %.0f/s; %d + %d requests; %d replications per config",
		hotRate, hotPool, coldRate, len(load.hotSched), len(load.coldSched), repsPerConfig)
	if fs, err := fsType(o.workdir); err == nil {
		rep.notef("koalad data dir filesystem: %s", fs)
	}

	setups := setupRepeats
	if o.trace {
		setups = 1 // setup_s is reported by the untraced run only
	}
	plain, err := load.measure(o, nil, setups)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	v := newVerifier(tr)
	if err := v.check(load, plain); err != nil {
		return nil, err
	}
	all := plain.all()
	out.attempted += len(all)
	for kind, n := range failures(all) {
		out.failed += n
		rep.notef("FAILED: %d untraced requests %s", n, kind)
	}

	reps := delta(plain.before, plain.after, "koalad_replications_total")
	rep.set("setup_s", median(plain.setups))
	rep.set("peak_rss_mb", float64(plain.maxRSSKB)/1024)
	rep.set("reps_per_s", reps/plain.wall.Seconds())
	rep.set("cpu_ms_per_rep", ms(plain.cpu)/max(reps, 1))
	rep.set("cpu_ms_per_req", ms(plain.cpu)/float64(max(plain.done(), 1)))
	// Client-side latencies, reported by the traced run, always come
	// from the untraced pass.
	for _, c := range []struct {
		name string
		reqs []request
		at   func(request) time.Duration
	}{
		{"terminal_ms", all, terminalOf},
		{"submit_ms", all, submitOf},
		{"hot.terminal_ms", plain.hot, terminalOf},
		{"cold.terminal_ms", plain.cold, terminalOf},
		{"gen.late_ms", all, lateOf},
	} {
		lat := latencies(c.reqs, c.at)
		q := quantiles(lat, 0.5, 0.9, 0.99)
		rep.set(c.name+".p50", q[0])
		rep.set(c.name+".p99", q[2])
		if c.name == "terminal_ms" {
			rep.set(c.name+".p90", q[1])
		}
		rep.notef("%s p50/p90/p99: %.2f/%.2f/%.2f over n=%d", c.name, q[0], q[1], q[2], len(lat))
	}
	rep.notef("untraced: %d requests done in %.2fs, %.0f replications", plain.done(), plain.wall.Seconds(), reps)

	if o.trace {
		if err := koaladTraced(o, rep, load, plain, v, out); err != nil {
			return nil, err
		}
		if err := tr.write(spanPath(o)); err != nil {
			return nil, err
		}
	}
	rep.set("error_rate", float64(out.failed)/float64(max(out.attempted, 1)))
	return out, nil
}

// koaladTraced repeats the window against a profiled daemon and reports
// the per-layer metrics; the class latencies come from the untraced pass.
func koaladTraced(o options, rep *report, load *koaladLoad, plain *koaladPass, v *verifier, out *outcome) error {
	p, err := load.measure(o, v.tr, 1)
	if err != nil {
		return err
	}
	if err := v.check(load, p); err != nil {
		return err
	}
	all := p.all()
	out.attempted += len(all)
	fails := failures(all)
	for kind, n := range fails {
		out.failed += n
		rep.notef("FAILED: %d traced requests %s", n, kind)
	}
	reqs := float64(max(p.done(), 1))
	reps := max(delta(p.before, p.after, "koalad_replications_total"), 1)

	fold, err := foldCPUProfile(p.prof)
	if err != nil {
		return err
	}
	setFold(rep, fold, reqs)
	rep.set("koalad.sim_self_ms", float64(fold.sumNs(simLayers...))/1e6/reqs)

	// The verifier timed the public calls, and counted the simulator's
	// work, on the checked configs, in this process.
	ss := v.stats.Snapshot()
	vreps := float64(max(v.reps, 1))
	eventsPerRep := float64(ss.EventsFired) / vreps
	rep.set("sim.events_fired", eventsPerRep)
	rep.set("sim.ns_per_event", float64(fold.Buckets["sim"])/(eventsPerRep*reps))
	rep.set("sim.cancel_ratio", float64(ss.EventsCanceled)/float64(max(ss.EventsScheduled, 1)))
	rep.set("sim.pending_peak", float64(ss.PendingPeak))
	rep.set("core.grow_decisions", float64(ss.GrowDecisions)/vreps)
	rep.set("core.shrink_decisions", float64(ss.ShrinkDecisions)/vreps)
	rep.notef("sim.* and core.* decisions: in-process runs of the %d checked configs (%d replications)", len(v.want), v.reps)
	setCallTimes(rep, v.tr)
	rep.na("experiment.figures_ms", "koalad draws no figures")
	rep.na("parallel.busy_ratio", "the daemon's pool is not observable from outside")

	mb, ma := p.memBefore, p.memAfter
	rep.set("runtime.gc_cycles_per_100reps", (ma["NumGC"]-mb["NumGC"])*100/reps)
	rep.set("runtime.allocs_per_rep", (ma["Mallocs"]-mb["Mallocs"])/reps)
	rep.set("runtime.alloc_kb_per_rep", (ma["TotalAlloc"]-mb["TotalAlloc"])/1024/reps)
	rep.set("runtime.heap_peak_mb", p.heapPeak/(1<<20))

	for name, fam := range map[string]string{
		"server.queue_wait_ms.mean":     "koalad_queue_wait_seconds",
		"server.run_ms.mean":            "koalad_run_duration_seconds",
		"server.follower_stall_ms.mean": "koalad_follower_write_stall_seconds",
		"store.write_ms.mean":           "koalad_store_write_seconds",
		"store.read_ms.mean":            "koalad_store_read_seconds",
	} {
		if m, _, ok := histMeanMs(p.before, p.after, fam); ok {
			rep.set(name, m)
		} else {
			rep.na(name, fam+" observed nothing in the window")
		}
	}
	hits := delta(p.before, p.after, "koalad_cache_hits_total")
	lookups := hits + delta(p.before, p.after, "koalad_cache_misses_total") + delta(p.before, p.after, "koalad_cache_coalesced_total")
	rep.set("server.cache_hit_ratio", hits/max(lookups, 1))
	rep.set("server.refused_ratio", float64(fails["refused"])/float64(len(all)))
	rep.set("server.gone_ratio", float64(fails["gone"])/float64(len(all)))
	rep.set("store.journal_compactions", delta(p.before, p.after, "koalad_journal_compactions_total"))

	for _, s := range []string{"queue", "dispatch", "replication"} {
		rep.set("trace."+s+"_ms.p50", median(p.spans[s]))
	}
	rep.set("lifecycle.queued_ms.p50", median(p.life["queued"]))
	rep.set("lifecycle.run_ms.p50", median(p.life["run"]))
	rep.notef("trace.* over the spans of %d checked cold runs", len(p.life["run"]))

	untracedCPU := ms(plain.cpu) / float64(max(plain.done(), 1))
	rep.set("trace.overhead_ratio", ms(p.cpu)/reqs/untracedCPU-1)
	return nil
}

// fsType names the filesystem holding dir.
func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", err
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs (RAM-backed)", nil
	case 0x794c7630:
		return "overlayfs", nil
	case 0xef53:
		return "ext4", nil
	case 0x58465342:
		return "xfs", nil
	case 0x9123683e:
		return "btrfs", nil
	}
	return fmt.Sprintf("statfs type %#x", st.Type), nil
}

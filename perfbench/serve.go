package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/busgen"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/estimate"
	"repro/internal/explore"
	"repro/internal/hdl"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/vhdlgen"
	"repro/internal/workloads"
)

const (
	// serveRate is the offered load in requests per second.
	serveRate = 100
	// serveBlock is the request mix: in every block of this many
	// requests, serveHitsPerBlock repeat a warm request and the rest are
	// new — two synthesize, one bounded verify and one sweep.
	serveBlock        = 20
	serveHitsPerBlock = 16
	// serveVerifyStates bounds each verify miss's search.
	serveVerifyStates = 3000
)

// serveConns bounds the load generator's concurrent requests, and so
// its connections: two, and never more than the machine has CPUs.
var serveConns = min(2, runtime.NumCPU())

// serveReq is one distinct request of the run.
type serveReq struct {
	body  []byte
	req   serve.Request
	warm  bool // issued during set-up; later requests repeat it
	first []byte
}

// serveRun is one request of the timed schedule.
type serveRun struct {
	r       *serveReq
	due     time.Time
	sent    time.Time
	done    time.Time
	cache   string
	status  int
	body    []byte
	err     error
	traced  bool
	latency float64 // ms from due time to the end of the response
}

// warmRequests are the paper designs the hits repeat: every text under
// synthesize with a few option sets, plus a sweep and a bounded verify.
func warmRequests() ([]serve.Request, error) {
	texts := map[string]string{}
	for _, f := range []string{"flc.sys", "pq.sys", "pqsolo.sys", "dma.sys"} {
		b, err := os.ReadFile(filepath.Join("testdata", f))
		if err != nil {
			return nil, err
		}
		texts[f] = string(b)
	}
	for name, sys := range map[string]*spec.System{"ethernet": workloads.Ethernet(2), "mesh": workloads.Mesh(3)} {
		t, err := hdl.Print(sys)
		if err != nil {
			return nil, err
		}
		texts[name] = t
	}
	var reqs []serve.Request
	for _, name := range []string{"flc.sys", "pq.sys", "pqsolo.sys", "dma.sys", "ethernet", "mesh"} {
		for _, o := range []serve.Options{{}, {Protocol: "half"}, {ForceWidth: 8}} {
			reqs = append(reqs, serve.Request{Op: serve.OpSynthesize, Spec: texts[name], Options: o})
		}
	}
	for _, name := range []string{"pq.sys", "pqsolo.sys"} {
		reqs = append(reqs,
			serve.Request{Op: serve.OpSynthesize, Spec: texts[name], Options: serve.Options{Robust: true}},
			serve.Request{Op: serve.OpVerify, Spec: texts[name], Options: serve.Options{Robust: true, VerifyStates: serveVerifyStates}})
	}
	reqs = append(reqs,
		serve.Request{Op: serve.OpSweep, Spec: texts["flc.sys"]},
		serve.Request{Op: serve.OpSweep, Spec: texts["pq.sys"], Options: serve.Options{IncludeRobust: true}})
	return reqs, nil
}

// serveSchedule makes the timed requests: blocks of serveBlock requests
// in a seeded order, due at a fixed rate with seeded jitter.
func serveSchedule(seed int64, n int, warm []*serveReq, pqText string) ([]*serveRun, error) {
	rng := rand.New(rand.NewSource(seed))
	var runs []*serveRun
	fresh := 0
	for len(runs) < n {
		block := make([]*serveReq, 0, serveBlock)
		for i := 0; i < serveHitsPerBlock; i++ {
			block = append(block, warm[rng.Intn(len(warm))])
		}
		for k := 0; k < serveBlock-serveHitsPerBlock; k++ {
			fresh++
			var req serve.Request
			switch k % 4 {
			case 0, 1:
				text, err := nextRandomText(seed, &fresh)
				if err != nil {
					return nil, err
				}
				req = serve.Request{Op: serve.OpSynthesize, Spec: text, Options: serve.Options{Arbitrate: true}}
			case 2:
				// A distinct bound makes a distinct key of the same cost.
				req = serve.Request{Op: serve.OpVerify, Spec: pqText,
					Options: serve.Options{Robust: true, VerifyStates: serveVerifyStates + fresh}}
			case 3:
				text, err := nextRandomText(seed, &fresh)
				if err != nil {
					return nil, err
				}
				req = serve.Request{Op: serve.OpSweep, Spec: text, Options: serve.Options{IncludeRobust: true}}
			}
			r, err := newServeReq(req)
			if err != nil {
				return nil, err
			}
			block = append(block, r)
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, r := range block {
			runs = append(runs, &serveRun{r: r})
		}
	}
	runs = runs[:n]
	period := time.Second / serveRate
	for i, r := range runs {
		// Due times are spaced 1/rate apart, each jittered by up to half
		// a period either way.
		r.due = time.Time{}.Add(time.Duration(i)*period + time.Duration((rng.Float64()-0.5)*float64(period)))
	}
	return runs, nil
}

// nextRandomText prints the next seeded random system that fits one
// bus. The daemon groups every channel onto a single bus, and bus
// generation rightly finds no width for some random systems; those are
// skipped while the schedule is made.
func nextRandomText(seed int64, n *int) (string, error) {
	for {
		*n++
		s := seed*1_000_000 + int64(*n)
		if _, err := core.Synthesize(difftest.Generate(s, difftest.DefaultGenConfig()), core.Options{Arbitrate: true}); err != nil {
			continue
		}
		return hdl.Print(difftest.Generate(s, difftest.DefaultGenConfig()))
	}
}

func newServeReq(req serve.Request) (*serveReq, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &serveReq{body: b, req: req}, nil
}

// daemon is an in-process ifsynd on loopback HTTP.
type daemon struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	dir    string
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.hs.Close()
	d.srv.Close()
	os.RemoveAll(d.dir)
}

func startDaemon(scratch string) (*daemon, error) {
	dir, err := os.MkdirTemp(scratch, "cache-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: runtime.NumCPU(), CacheDir: dir})
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	return &daemon{srv: srv, hs: httptest.NewServer(srv.Handler()), client: &http.Client{Transport: tr}, dir: dir}, nil
}

// post sends one query and reads the whole response.
func (d *daemon) post(body []byte) (status int, cache string, out []byte, err error) {
	resp, err := d.client.Post(d.hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), out, err
}

type serveSetup struct {
	d    *daemon
	warm []*serveReq
}

// serveStart starts a daemon with a fresh disk cache and warms it: every
// warm request once (a miss) and once more (a hit).
func serveStart(rc *runCtx, prev *serveSetup) (*serveSetup, error) {
	if prev != nil {
		prev.d.close()
	}
	d, err := startDaemon(rc.scratch)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{d: d}
	if err := s.warmUp(); err != nil {
		d.close()
		return nil, err
	}
	return s, nil
}

func (s *serveSetup) warmUp() error {
	reqs, err := warmRequests()
	if err != nil {
		return err
	}
	for _, req := range reqs {
		r, err := newServeReq(req)
		if err != nil {
			return err
		}
		r.warm = true
		for i := 0; i < 2; i++ {
			status, _, body, err := s.d.post(r.body)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d: %v %s", req.Op, status, err, body)
			}
			if i == 0 {
				r.first = body
			}
		}
		s.warm = append(s.warm, r)
	}
	return nil
}

func runServe(rc *runCtx) (*outcome, error) {
	var cur *serveSetup
	setup, setups, err := setupTimes(func() (*serveSetup, error) {
		s, err := serveStart(rc, cur)
		cur = s
		return s, err
	})
	if err != nil {
		if cur != nil {
			cur.d.close()
		}
		return nil, err
	}
	defer setup.d.close()
	// The schedule is made outside the timed set-up: the CPU time of its
	// feasibility syntheses spread setup_s by up to 47 % between runs.
	pq, err := os.ReadFile("testdata/pq.sys")
	if err != nil {
		return nil, err
	}
	n := int(rc.window.Seconds() * serveRate)
	runs, err := serveSchedule(rc.seed, n, setup.warm, string(pq))
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	gc0, alloc0 := gcCPUSeconds(), heapAllocBytes()
	cpu0 := processCPUSeconds()
	start := driveOpenLoop(setup.d, runs, tr)
	cpu1 := processCPUSeconds()
	rss := peakRSSMiB()
	gc1, alloc1 := gcCPUSeconds(), heapAllocBytes()

	out := &outcome{setups: setups, peakRSS: rss, detail: map[string]float64{}}
	var lat, hit, miss, late, tracedLat, plainLat []float64
	dedups, answered := 0, 0
	last := start
	for _, r := range runs {
		out.attempted++
		if r.err != nil || r.status != http.StatusOK {
			out.checkf("request %s: status %d: %v %.200s", r.r.req.Op, r.status, r.err, r.body)
			continue
		}
		lat = append(lat, r.latency)
		late = append(late, ms(r.sent.Sub(r.due)))
		switch r.cache {
		case "hit":
			hit = append(hit, r.latency)
		case "miss":
			miss = append(miss, r.latency)
		case "dedup":
			dedups++
		}
		if r.traced {
			tracedLat = append(tracedLat, r.latency)
		} else {
			plainLat = append(plainLat, r.latency)
		}
		if r.done.After(last) {
			last = r.done
		}
		answered++
		if r.r.first == nil {
			r.r.first = r.body
		} else if !bytes.Equal(r.r.first, r.body) {
			out.checkf("a repeated %s request got a body different from its first answer", r.r.req.Op)
		}
	}
	out.elapsed = last.Sub(start)
	// The process's CPU time covers the load generator too: request
	// encoding is done beforehand, but sending and reading responses
	// are counted with the daemon's work.
	out.workPerCPU = float64(answered) / (cpu1 - cpu0)
	out.detail["serve_p50_ms"] = median(lat)
	out.detail["serve_p99_ms"] = p99(lat)
	out.detail["serve_requests"] = float64(len(runs))
	out.detail["serve_hit_ratio"] = float64(len(hit)) / float64(len(lat))
	out.detail["serve_late_p99_ms"] = p99(late)

	replay := serveChecks(runs, tr, out)
	if tr != nil {
		m := spanMetrics(rc, tr)
		for k, v := range replay {
			m[k] = v
		}
		m["serve.hit_p50_ms"] = median(hit)
		m["serve.miss_p50_ms"] = median(miss)
		m["serve.hits"] = float64(len(hit))
		m["serve.misses"] = float64(len(miss))
		m["serve.dedups"] = float64(dedups)
		m["serve.hit_ratio"] = float64(len(hit)) / float64(len(lat))
		m["serve.late_p99_ms"] = p99(late)
		m["runtime.gc_cpu_s"] = gc1 - gc0
		m["runtime.alloc_bytes"] = alloc1 - alloc0
		if p := median(plainLat); p > 0 {
			m["trace.overhead_pct"] = (median(tracedLat)/p - 1) * 100
		}
		out.layer = m
	}
	return out, nil
}

// driveOpenLoop sends each request at its due time, whether or not
// earlier ones have been answered, from serveConns senders, so over at
// most serveConns connections. Each sender takes the next request in
// schedule order, waits for its due time and sends it; a request comes
// due while both senders are busy is sent late, and its latency still
// counts from its due time. It returns the wall time the schedule's zero
// maps to. In a traced run every other request is recorded as a span.
func driveOpenLoop(d *daemon, runs []*serveRun, tr *tracer) time.Time {
	start := time.Now().Add(10 * time.Millisecond)
	for i, r := range runs {
		r.due = start.Add(r.due.Sub(time.Time{}))
		r.traced = tr != nil && i%2 == 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < serveConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(runs) {
					return
				}
				r := runs[k]
				time.Sleep(time.Until(r.due))
				r.sent = time.Now()
				var id int32 = -1
				if r.traced {
					id = tr.begin("serve.request", -1, int64(k))
				}
				r.status, r.cache, r.body, r.err = d.post(r.r.body)
				r.done = time.Now()
				if r.traced {
					tr.end(id)
				}
				r.latency = ms(r.done.Sub(r.due))
			}
		}()
	}
	wg.Wait()
	return start
}

// serveChecks verifies every synthesize answer's VHDL digest against
// the benchmark's own emission for the same text and options. In a
// traced run it records spans around the layer calls that the daemon
// makes for each request (parse and hash for every request; synthesis,
// emission and sweeps for the misses) and returns counts.
func serveChecks(runs []*serveRun, tr *tracer, out *outcome) map[string]float64 {
	m := map[string]float64{}
	checked := map[*serveReq]bool{}
	var op int64
	ac := newAllocCounter()
	for _, r := range runs {
		op++
		if tr != nil {
			tr.add("hdl.source_bytes", float64(len(r.r.req.Spec)))
			a0 := ac.read()
			id := tr.begin("hdl.parse", -1, op)
			sys, err := hdl.Parse(r.r.req.Spec)
			tr.end(id)
			tr.add("hdl.alloc_bytes", float64(ac.read().sub(a0).bytes))
			if err == nil {
				id = tr.begin("spec.hash", -1, op)
				spec.Hash(sys)
				tr.end(id)
			}
		}
		if checked[r.r] || r.cache != "miss" && !r.r.warm {
			continue
		}
		checked[r.r] = true
		switch r.r.req.Op {
		case serve.OpSynthesize:
			var res struct {
				VHDL string `json:"vhdl_sha256"`
			}
			if err := json.Unmarshal(r.r.first, &res); err != nil {
				out.checkf("synthesize answer: %v", err)
				continue
			}
			v, err := ownVHDL(tr, op, r.r.req)
			if err != nil {
				out.checkf("own synthesis: %v", err)
				continue
			}
			if err := checkDigest(res.VHDL, v); err != nil {
				out.checkf("synthesize: %v", err)
			}
			m["serve.digests_checked"]++
		case serve.OpSweep:
			if tr != nil {
				points, err := ownSweep(tr, op, r.r.req)
				if err != nil {
					out.checkf("own sweep: %v", err)
				}
				m["explore.points"] += float64(points)
			}
		}
	}
	out.detail["serve_digests_checked"] = m["serve.digests_checked"]
	if m["serve.digests_checked"] == 0 {
		out.checkf("no synthesize answer was checked")
	}
	delete(m, "serve.digests_checked")
	return m
}

// ownVHDL synthesizes a request's text the way the daemon's options
// say, in this process, and emits its VHDL.
func ownVHDL(tr *tracer, op int64, req serve.Request) (string, error) {
	sys, err := hdl.Parse(req.Spec)
	if err != nil {
		return "", err
	}
	o := req.Options
	p := spec.FullHandshake
	if o.Protocol == "half" {
		p = spec.HalfHandshake
	}
	id := tr.begin("core.synthesize", -1, op)
	_, err = core.Synthesize(sys, core.Options{
		Bus: busgen.Config{Protocol: p}, ForceWidth: o.ForceWidth, Arbitrate: o.Arbitrate,
		Robust: o.Robust, Parity: o.Parity, TimeoutClocks: o.TimeoutClocks, MaxRetries: o.MaxRetries,
	})
	tr.end(id)
	if err != nil {
		return "", err
	}
	id = tr.begin("vhdlgen.emit", -1, op)
	v := vhdlgen.Emit(sys)
	tr.end(id)
	tr.add("vhdlgen.bytes", float64(len(v)))
	return v, nil
}

// ownSweep runs a sweep request's exploration in this process.
func ownSweep(tr *tracer, op int64, req serve.Request) (int, error) {
	sys, err := hdl.Parse(req.Spec)
	if err != nil {
		return 0, err
	}
	if len(sys.Channels) == 0 {
		if _, err := partition.DeriveChannels(sys); err != nil {
			return 0, err
		}
	}
	id := tr.begin("explore.sweep", -1, op)
	sp, err := explore.Sweep(sys.Channels, estimate.New(sys.Channels), explore.Config{
		MinWidth: req.Options.MinWidth, MaxWidth: req.Options.MaxWidth, IncludeRobust: req.Options.IncludeRobust,
	})
	tr.end(id)
	if err != nil {
		return 0, err
	}
	return len(sp.Points), nil
}

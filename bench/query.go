package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"veritas"
	"veritas/internal/engine"
	"veritas/internal/serve"
	"veritas/internal/store"
)

// The two serving workloads: a real loopback http.Server over
// serve.New, driven by at most r.workers keep-alive connections from
// this process. query-read reads a finished corpus; live-ingest uses
// the same layers the other way, with a writer appending beside the
// reads.

// server is a loopback HTTP server over one handler.
type server struct {
	base string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

// stop shuts the server down and waits for its goroutine.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.done
}

// newClient returns a client limited to conns keep-alive connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// get issues one read and checks it: status 200 and a body that is
// valid JSON. It returns the body for further checks.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %.120s", url, resp.StatusCode, body)
	}
	if !json.Valid(body) {
		return nil, fmt.Errorf("GET %s: body is not JSON: %.120s", url, body)
	}
	return body, nil
}

// sample is one request's outcome.
type sample struct {
	class  string  // request.Class
	doneMs float64 // when the reply was complete, from the loop's start
	latMs  float64 // closed loop: from send; open loop: from the due time
	lateMs float64 // open loop: how late the generator sent it
	err    error
}

// closedLoop drives clients concurrent callers, each sending its next
// request only after the previous reply, for dur. Client k walks
// reqs[k], cycling.
func closedLoop(rec *recorder, parent *span, c *http.Client, base string, reqs [][]request, dur time.Duration) ([]sample, time.Duration) {
	out := make([][]sample, len(reqs))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k := range reqs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			track := rec.begin(parent, "bench", fmt.Sprintf("client %d", k)).onTrack(k + 1)
			defer track.finish()
			for i := 0; time.Now().Before(deadline); i++ {
				rq := reqs[k][i%len(reqs[k])]
				sp := rec.begin(track, "serve", rq.Endpoint)
				t0 := time.Now()
				_, err := get(c, base+rq.Path)
				out[k] = append(out[k], sample{class: rq.Class, doneMs: ms(time.Since(start)), latMs: ms(time.Since(t0)), err: err})
				sp.finish()
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, elapsed
}

// openLoop sends reqs on a fixed schedule — request i is due at
// i/rate seconds — over conns connections, whatever the server does.
// Latency is measured from the due time, so a stall is charged to
// every request it delays; how late the generator itself ran is
// reported beside it.
func openLoop(rec *recorder, parent *span, c *http.Client, base string, reqs []request, rate float64, conns int) []sample {
	out := make([]sample, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			track := rec.begin(parent, "bench", fmt.Sprintf("connection %d", k)).onTrack(k + 1)
			defer track.finish()
			for i := k; i < len(reqs); i += conns {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sp := rec.begin(track, "serve", reqs[i].Endpoint)
				late := time.Since(due)
				_, err := get(c, base+reqs[i].Path)
				out[i] = sample{class: reqs[i].Class, latMs: ms(time.Since(due)), lateMs: ms(late), err: err}
				sp.finish()
			}
		}(k)
	}
	wg.Wait()
	return out
}

const rateBlocks = 8

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// blockRates orders the successful samples by completion, cuts them
// into n consecutive blocks of equally many requests and returns each
// block's rate in requests per second. Blocks are long enough to hold
// the whole endpoint mix (and, in query-read, several report-cache
// wipes), so their median estimates the sustained rate, and a burst
// of stolen CPU in one or two blocks does not move it.
func blockRates(samples []sample, n int) []float64 {
	var done []float64
	for _, s := range samples {
		if s.err == nil {
			done = append(done, s.doneMs)
		}
	}
	sort.Float64s(done)
	if len(done) < n {
		n = 1
	}
	var rates []float64
	prev := 0.0
	for b := 1; b <= n && len(done) > 0; b++ {
		end := b * len(done) / n
		rates = append(rates, float64(end-(b-1)*len(done)/n)/(done[end-1]-prev)*1e3)
		prev = done[end-1]
	}
	return rates
}

// tally folds samples into the run: attempts, failures (a failed
// request has no latency to report — it misses any limit) and, when
// keepLat is set, the latency series of every request class.
func (r *run) tally(samples []sample, keepLat bool) (lateMs []float64) {
	for _, s := range samples {
		r.attempted++
		if s.err != nil {
			r.fail("%v", s.err)
			continue
		}
		if keepLat {
			r.lat[s.class] = append(r.lat[s.class], s.latMs)
		}
		lateMs = append(lateMs, s.lateMs)
	}
	return lateMs
}

// buildStore writes rows into a fresh store at dir (Sync every
// syncEvery appends) and closes it, which seals sidecars and the
// partials snapshot.
func buildStore(dir string, rows []veritas.FleetRow, syncEvery int) error {
	st, err := store.Create(dir, store.Options{})
	if err != nil {
		return err
	}
	if err := appendRows(st, rows, syncEvery); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

func appendRows(st *store.Store, rows []veritas.FleetRow, syncEvery int) error {
	for i, row := range rows {
		if err := st.Append(row); err != nil {
			return err
		}
		if (i+1)%syncEvery == 0 {
			if err := st.Sync(); err != nil {
				return err
			}
		}
	}
	return st.Sync()
}

// aggregateJSON is the reference report: the in-RAM aggregator over
// the same rows, which every store-backed report must equal byte for
// byte.
func aggregateJSON(rows []veritas.FleetRow) ([]byte, error) {
	agg := engine.NewAggregator(len(rows))
	for _, row := range rows {
		agg.AddRow(row)
	}
	return json.Marshal(agg.Report())
}

// checkReport compares a served /v1/report body with the reference
// and makes it the run's digest.
func (r *run) checkReport(body []byte, rows []veritas.FleetRow) error {
	want, err := aggregateJSON(rows)
	if err != nil {
		return err
	}
	r.attempted++
	if !bytes.Equal(body, want) {
		r.fail("served /v1/report (%d bytes) differs from the in-RAM aggregate of the same %d rows (%d bytes)", len(body), len(rows), len(want))
	}
	sum := sha256.Sum256(body)
	r.digest = hex.EncodeToString(sum[:])
	return nil
}

// healthz reads the handler's public counters.
func healthz(c *http.Client, base string) (map[string]float64, error) {
	body, err := get(c, base+"/healthz")
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

func runQueryRead(r *run) error {
	var (
		rows []veritas.FleetRow
		st   *store.Store
		srv  *server
	)
	for i := 0; i < r.sz.setups; i++ {
		if srv != nil {
			srv.stop()
			st.Close()
		}
		t0 := time.Now()
		sp := r.rec.begin(r.root, "bench", "build corpus store")
		base, err := realRows(r.seed, r.sz.seedSessions, r.sz.seedChunks, r.workers)
		if err != nil {
			return err
		}
		rows = synthRows(base, r.sz.storeRows, r.seed)
		dir := filepath.Join(r.dir, fmt.Sprintf("corpus-%d.store", i))
		// One Sync at the end: set-up measures building the corpus, and
		// 125 fsyncs would make it a measurement of the disk's mood.
		if err := buildStore(dir, rows, len(rows)); err != nil {
			return err
		}
		if st, err = store.Open(dir, store.Options{ReadOnly: true}); err != nil {
			return err
		}
		if srv, err = serveLoopback(serve.New(st)); err != nil {
			return err
		}
		sp.finish()
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	defer st.Close()
	defer srv.stop()
	client := newClient(r.workers)
	defer client.CloseIdleConnections()
	ids := rowIDs(rows)

	// Phase A, closed loop: r.workers callers → capacity.
	perClient := make([][]request, r.workers)
	for k := range perClient {
		perClient[k] = schedule(r.seed+int64(k)*9973, 4096, ids, readMix)
	}
	spA := r.rec.begin(r.root, "bench", "phase A closed loop")
	samples, elapsed := closedLoop(r.rec, spA, client, srv.base, perClient, r.budget/2)
	spA.finish()
	before := r.failed
	r.tally(samples, false)
	r.ops = float64(len(samples) - (r.failed - before))
	r.wall = elapsed.Seconds()
	r.rates = blockRates(samples, rateBlocks)
	var closed []float64
	for _, s := range samples {
		closed = append(closed, s.latMs)
	}
	r.info["closed_loop_p50_ms"] = percentile(closed, 50)

	// Phase B, open loop at a fixed rate below capacity → latency.
	n := int(r.sz.openRate * r.budget.Seconds() / 2)
	spB := r.rec.begin(r.root, "bench", "phase B open loop")
	samples = openLoop(r.rec, spB, client, srv.base, schedule(r.seed+7, n, ids, readMix), r.sz.openRate, r.workers)
	spB.finish()
	r.info["bench.generator_lateness_p99_ms"] = percentile(r.tally(samples, true), 99)

	hz, err := healthz(client, srv.base)
	if err != nil {
		return err
	}
	if total := hz["cacheHits"] + hz["cacheMisses"]; total > 0 {
		r.info["serve.row_cache_hit_ratio"] = hz["cacheHits"] / total
	}
	body, err := get(client, srv.base+"/v1/report")
	if err != nil {
		return err
	}
	return r.checkReport(body, rows)
}

// paced calls step(i) for i = 0, 1, … at rate per second until n calls
// were made or stop is closed, and returns how many were made. A step
// that falls behind is not skipped: the schedule is open loop.
func paced(rate float64, n int, stop <-chan struct{}, step func(i int) error) (int, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return i, nil
			case <-time.After(wait):
			}
		}
		if err := step(i); err != nil {
			return i, err
		}
	}
	return n, nil
}

// liveMix is what the live dashboard polls: the report family, at
// cmd/loadgen's default weights. Under ingest every poll sees a new
// generation, so every one is a cache miss.
var liveMix = map[string]int{"report": 4, "percentiles": 2, "cdf": 1, "series": 1}

func runLiveIngest(r *run) error {
	steady := int(r.sz.ingestRate * r.budget.Seconds())
	var (
		rows   []veritas.FleetRow
		writer *store.Store
		watch  *store.Store
		srv    *server
	)
	for i := 0; i < r.sz.setups; i++ {
		if srv != nil {
			srv.stop()
			watch.Close()
			writer.Close()
		}
		t0 := time.Now()
		sp := r.rec.begin(r.root, "bench", "open writer, watcher and server")
		base, err := realRows(r.seed, r.sz.seedSessions, r.sz.seedChunks, r.workers)
		if err != nil {
			return err
		}
		rows = synthRows(base, r.sz.catchupRows+steady, r.seed)
		dir := filepath.Join(r.dir, fmt.Sprintf("live-%d.store", i))
		if writer, err = store.Create(dir, store.Options{}); err != nil {
			return err
		}
		if watch, err = store.OpenWatch(dir, store.Options{}); err != nil {
			return err
		}
		// Interval 0: every request re-checks the tail, so refresh, fold
		// and cache invalidation are measured, not a timer.
		if srv, err = serveLoopback(serve.New(watch, serve.WithWatchInterval(0))); err != nil {
			return err
		}
		sp.finish()
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	defer writer.Close()
	defer watch.Close()
	defer srv.stop()
	client := newClient(1)
	defer client.CloseIdleConnections()

	var appended atomic.Int64
	appendOne := func(i int) error {
		if err := writer.Append(rows[i]); err != nil {
			return err
		}
		appended.Add(1)
		if (i+1)%32 == 0 {
			return writer.Sync()
		}
		return nil
	}
	sessionsShown := func(body []byte) int {
		var rep struct{ Sessions int }
		_ = json.Unmarshal(body, &rep) // body was already checked to be JSON
		return rep.Sessions
	}

	// Phase A, catch-up: the writer appends at full speed; the clock
	// stops when a served report shows every row.
	spA := r.rec.begin(r.root, "bench", "phase A catch-up")
	t0 := time.Now()
	werr := make(chan error, 1)
	go func() {
		for i := 0; i < r.sz.catchupRows; i++ {
			if err := appendOne(i); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	writing := true
	for shown := 0; shown < r.sz.catchupRows; {
		if writing {
			select {
			case err := <-werr:
				if err != nil {
					return fmt.Errorf("catch-up writer: %w", err)
				}
				writing = false
			default:
			}
		}
		sp := r.rec.begin(spA, "serve", "report")
		body, err := get(client, srv.base+"/v1/report")
		sp.finish()
		if err != nil {
			return fmt.Errorf("catch-up: %w", err)
		}
		shown = sessionsShown(body)
	}
	catchup := time.Since(t0)
	spA.finish()
	if writing {
		if err := <-werr; err != nil {
			return fmt.Errorf("catch-up writer: %w", err)
		}
	}
	r.attempted += r.sz.catchupRows
	r.info["e2e.catchup_rows_per_s"] = float64(r.sz.catchupRows) / catchup.Seconds()

	// Phase B, steady: the writer appends on a fixed schedule while one
	// closed-loop client polls the report family.
	reqs := schedule(r.seed+11, 4096, nil, liveMix)
	spB := r.rec.begin(r.root, "bench", "phase B steady ingest")
	stop := make(chan struct{})
	type wres struct {
		n   int
		err error
	}
	wdone := make(chan wres, 1)
	go func() {
		n, err := paced(r.sz.ingestRate, steady, stop, func(i int) error { return appendOne(r.sz.catchupRows + i) })
		wdone <- wres{n, err}
	}()
	t1 := time.Now()
	var samples []sample
	for i := 0; time.Since(t1) < r.budget; i++ {
		rq := reqs[i%len(reqs)]
		sentAfter := int(appended.Load())
		sp := r.rec.begin(spB, "serve", rq.Endpoint)
		t := time.Now()
		body, err := get(client, srv.base+rq.Path)
		s := sample{class: rq.Class, doneMs: ms(time.Since(t1)), latMs: ms(time.Since(t)), err: err}
		sp.finish()
		if err == nil && rq.Path == "/v1/report" {
			if shown := sessionsShown(body); shown < sentAfter {
				s.err = fmt.Errorf("stale report: shows %d sessions, %d were appended before the request", shown, sentAfter)
			}
		}
		samples = append(samples, s)
	}
	elapsed := time.Since(t1)
	close(stop)
	w := <-wdone
	spB.finish()
	if w.err != nil {
		return w.err
	}
	before := r.failed
	r.tally(samples, true)
	r.ops = float64(len(samples) - (r.failed - before))
	r.wall = elapsed.Seconds()
	// One unit: the corpus grows under the polls and a report costs in
	// proportion to it, so the rate falls over the phase and a median of
	// consecutive blocks would sit wherever the fall is steepest.
	r.rates = []float64{r.ops / r.wall}
	r.attempted += w.n
	r.info["ingest_rows_per_s"] = float64(w.n) / elapsed.Seconds()

	body, err := get(client, srv.base+"/v1/report")
	if err != nil {
		return err
	}
	return r.checkReport(body, rows[:r.sz.catchupRows+w.n])
}

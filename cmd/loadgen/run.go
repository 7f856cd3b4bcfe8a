package main

// The testable core: config validation, target discovery, the worker
// loop, and result aggregation. main.go is flag parsing over this.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"veritas/internal/mathx"
	"veritas/internal/stats"
)

// defaultMix weights the endpoints the way a dashboard fleet does:
// mostly aggregate reads, a trickle of listings.
const defaultMix = "report=4,percentiles=2,cdf=1,series=1,sessions=1,scenarios=1"

// endpoints are the request kinds loadgen knows how to issue.
var endpoints = map[string]bool{
	"report":      true,
	"cdf":         true,
	"series":      true,
	"percentiles": true,
	"sessions":    true,
	"scenarios":   true,
}

var reportMetricKeys = []string{"ssim", "rebuf", "bitrate"}

var reportEstimators = []string{"veritas-mid", "veritas-low", "veritas-high", "baseline", "truth"}

type mixEntry struct {
	endpoint string
	weight   int
}

// parseMix decodes "report=4,cdf=1,..." keeping the caller's order
// (the summary table comes out in mix order).
func parseMix(s string) ([]mixEntry, error) {
	var out []mixEntry
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, w, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want endpoint=weight", part)
		}
		if !endpoints[name] {
			return nil, fmt.Errorf("mix entry %q: unknown endpoint (have report, cdf, series, percentiles, sessions, scenarios)", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("mix entry %q: endpoint repeated", part)
		}
		seen[name] = true
		n, err := strconv.Atoi(w)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("mix entry %q: weight must be a non-negative integer", part)
		}
		if n > 0 {
			out = append(out, mixEntry{endpoint: name, weight: n})
		}
	}
	if len(out) == 0 {
		return nil, errors.New("mix selects no endpoints")
	}
	return out, nil
}

type config struct {
	base        string
	duration    time.Duration
	concurrency int
	zipfS       float64
	zipfV       float64
	seed        int64
	mix         []mixEntry
	wait        time.Duration
	client      *http.Client // nil = http.DefaultClient
}

func (c config) validate() error {
	switch {
	case c.duration <= 0:
		return errors.New("-duration must be positive")
	case c.concurrency < 1:
		return errors.New("-concurrency must be at least 1")
	case c.zipfS <= 1:
		return errors.New("-zipf-s must be > 1")
	case c.zipfV < 1:
		return errors.New("-zipf-v must be >= 1")
	case len(c.mix) == 0:
		return errors.New("empty endpoint mix")
	}
	return nil
}

func (c config) httpClient() *http.Client {
	if c.client != nil {
		return c.client
	}
	return http.DefaultClient
}

// corpus is what discovery learned about the target: the names load is
// skewed over. Both lists may be empty against a store with no
// sessions yet; the mix then degrades to unfiltered requests.
type corpus struct {
	scenarios []string
	arms      []string
}

// discover asks the server for its scenario and arm lists — the same
// reads a dashboard's first paint issues.
func discover(cfg config) (corpus, error) {
	var c corpus
	var scens struct {
		Scenarios []struct {
			Scenario string
			Sessions int
		} `json:"scenarios"`
	}
	if err := getJSON(cfg, "/v1/scenarios", &scens); err != nil {
		return c, fmt.Errorf("discovering scenarios: %w", err)
	}
	for _, s := range scens.Scenarios {
		c.scenarios = append(c.scenarios, s.Scenario)
	}
	var rep struct {
		Sessions int
		Arms     []struct{ Arm string }
	}
	if err := getJSON(cfg, "/v1/report", &rep); err != nil {
		return c, fmt.Errorf("discovering arms: %w", err)
	}
	for _, a := range rep.Arms {
		c.arms = append(c.arms, a.Arm)
	}
	return c, nil
}

// discoverWithWait polls discovery until the corpus is non-empty (some
// scenario and some arm exist), up to cfg.wait — so a smoke run can
// start loadgen and the campaign simultaneously and let loadgen catch
// the store as soon as the first sessions land.
func discoverWithWait(cfg config) (corpus, error) {
	deadline := time.Now().Add(cfg.wait)
	for {
		c, err := discover(cfg)
		if err == nil && len(c.scenarios) > 0 && len(c.arms) > 0 {
			return c, nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return c, err
			}
			return c, nil // run against what we have, even if empty
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func getJSON(cfg config, path string, into any) error {
	resp, err := cfg.httpClient().Get(cfg.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// epStats accumulates one endpoint's outcomes in one worker (merged
// across workers after the run; no locks on the hot path).
type epStats struct {
	count  int
	errors int
	lat    []float64 // nanoseconds
}

type runResult struct {
	mix        []mixEntry
	byEndpoint map[string]*epStats
	total      int
	errors     int
	elapsed    time.Duration
}

// run drives the configured load and aggregates outcomes. It always
// returns (individual request failures are data, not errors).
func run(cfg config, c corpus) runResult {
	var wg sync.WaitGroup
	perWorker := make([]map[string]*epStats, cfg.concurrency)
	start := time.Now()
	deadline := start.Add(cfg.duration)
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			perWorker[id] = worker(cfg, c, id, deadline)
		}(w)
	}
	wg.Wait()
	res := runResult{
		mix:        cfg.mix,
		byEndpoint: make(map[string]*epStats),
		elapsed:    time.Since(start),
	}
	for _, m := range perWorker {
		for name, s := range m {
			dst := res.byEndpoint[name]
			if dst == nil {
				dst = &epStats{}
				res.byEndpoint[name] = dst
			}
			dst.count += s.count
			dst.errors += s.errors
			dst.lat = append(dst.lat, s.lat...)
			res.total += s.count
			res.errors += s.errors
		}
	}
	return res
}

// worker issues requests until deadline with its own RNG and Zipf
// samplers (derived deterministically from the base seed, so two runs
// with the same seed issue the same request sequence per worker).
func worker(cfg config, c corpus, id int, deadline time.Time) map[string]*epStats {
	r := mathx.NewRand(cfg.seed + int64(id)*9973)
	var zScen, zArm *rand.Zipf
	if len(c.scenarios) > 0 {
		zScen = rand.NewZipf(&r.Rand, cfg.zipfS, cfg.zipfV, uint64(len(c.scenarios)-1))
	}
	if len(c.arms) > 0 {
		zArm = rand.NewZipf(&r.Rand, cfg.zipfS, cfg.zipfV, uint64(len(c.arms)-1))
	}
	var totalWeight int
	for _, m := range cfg.mix {
		totalWeight += m.weight
	}
	out := make(map[string]*epStats, len(cfg.mix))
	client := cfg.httpClient()
	for time.Now().Before(deadline) {
		pick := r.Intn(totalWeight)
		var ep string
		for _, m := range cfg.mix {
			if pick < m.weight {
				ep = m.endpoint
				break
			}
			pick -= m.weight
		}
		path := buildPath(ep, c, r, zScen, zArm)
		t0 := time.Now()
		ok := get(client, cfg.base+path)
		lat := float64(time.Since(t0).Nanoseconds())
		s := out[ep]
		if s == nil {
			s = &epStats{}
			out[ep] = s
		}
		s.count++
		s.lat = append(s.lat, lat)
		if !ok {
			s.errors++
		}
	}
	return out
}

// buildPath picks concrete query parameters for one request: Zipf-hot
// scenarios and arms, rotating metrics and estimators uniformly.
func buildPath(ep string, c corpus, r *mathx.Rand, zScen, zArm *rand.Zipf) string {
	q := url.Values{}
	// Half the aggregate reads filter by a (Zipf-hot) scenario, like
	// per-scenario dashboard panels; the rest take the whole corpus.
	if zScen != nil && r.Intn(2) == 0 {
		q.Set("scenario", c.scenarios[zScen.Uint64()])
	}
	arm := ""
	if zArm != nil {
		arm = c.arms[zArm.Uint64()]
	}
	switch ep {
	case "scenarios":
		return "/v1/scenarios"
	case "sessions":
		return withQuery("/v1/sessions", q)
	case "report":
		return withQuery("/v1/report", q)
	case "cdf", "series", "percentiles":
		if arm == "" {
			return withQuery("/v1/report", q) // nothing to filter by yet
		}
		q.Set("arm", arm)
		q.Set("metric", reportMetricKeys[r.Intn(len(reportMetricKeys))])
		q.Set("estimator", reportEstimators[r.Intn(len(reportEstimators))])
		if ep == "percentiles" && r.Intn(2) == 0 {
			q.Set("percentiles", "50,95,99")
		}
		return withQuery("/v1/report/"+ep, q)
	}
	return "/v1/report"
}

func withQuery(path string, q url.Values) string {
	if len(q) == 0 {
		return path
	}
	return path + "?" + q.Encode()
}

func get(client *http.Client, u string) bool {
	resp, err := client.Get(u)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// endpointOrder lists the measured endpoints in mix order (then any
// stragglers alphabetically, defensively).
func (r runResult) endpointOrder() []string {
	var order []string
	seen := map[string]bool{}
	for _, m := range r.mix {
		if r.byEndpoint[m.endpoint] != nil {
			order = append(order, m.endpoint)
			seen[m.endpoint] = true
		}
	}
	var rest []string
	for name := range r.byEndpoint {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(order, rest...)
}

// writeSummary prints the human-readable table.
func (r runResult) writeSummary(w io.Writer) {
	secs := r.elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	fmt.Fprintf(w, "loadgen: %d requests in %v (%.0f req/s), %d errors\n",
		r.total, r.elapsed.Round(time.Millisecond), float64(r.total)/secs, r.errors)
	for _, name := range r.endpointOrder() {
		s := r.byEndpoint[name]
		ps := stats.Percentiles(s.lat, []float64{50, 99})
		if ps == nil {
			continue
		}
		fmt.Fprintf(w, "  %-12s %6d reqs  p50 %8s  p99 %8s  errors %d\n",
			name, s.count,
			time.Duration(ps[0]).Round(time.Microsecond),
			time.Duration(ps[1]).Round(time.Microsecond),
			s.errors)
	}
}

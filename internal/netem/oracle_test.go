package netem

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"veritas/internal/mathx"
	"veritas/internal/tcp"
	"veritas/internal/trace"
)

// downloadOracle is Conn.Download as it stood before a download looked
// the bandwidth up once per trace step, read its jitter from a shared
// tape and kept its state in locals: an At (and, on a zero step, a
// NextChange) every round, a draw from the connection's private
// generator, slow-start restart through a whole tcp.State, the window
// and threshold updated on the Conn every round, math.Min and math.Max,
// and a serialization division every round.
func downloadOracle(c *Conn, start, sizeBytes float64, tr *trace.Trace) (end float64, err error) {
	if sizeBytes <= 0 {
		return start, nil
	}
	if tr == nil {
		return 0, errors.New("netem: nil trace")
	}
	if c.cfg.SlowStartRestart && c.hasSent {
		st := c.State(start)
		c.cwnd, c.ssthresh = tcp.SlowStartRestart(st.CWND, st.SSThresh, st.LastSendGap, st.RTO)
	}

	t := start
	remaining := float64(tcp.Segments(sizeBytes))
	for remaining > 0 {
		gtbw := tr.At(t)
		if gtbw <= 0 {
			next := tr.NextChange(t)
			if math.IsInf(next, 1) {
				return 0, ErrStalled
			}
			t = next
			continue
		}
		rate := gtbw
		if c.cfg.JitterStd > 0 {
			noise := 1 + c.rng.NormFloat64()*c.cfg.JitterStd
			rate = gtbw * math.Max(0.5, math.Min(1.5, noise))
		}
		bdp := float64(tcp.BDPSegments(rate, c.cfg.RTT))
		flight := math.Min(c.cwnd, bdp)
		if flight > remaining {
			flight = remaining
		}
		if flight < 1 {
			flight = 1
		}
		serialization := flight * tcp.MSS * 8 / (rate * 1e6)
		roundTime := math.Max(c.cfg.RTT, serialization)
		t += roundTime
		remaining -= flight
		if c.cwnd < c.ssthresh {
			c.cwnd *= 2
		} else {
			c.cwnd++
		}
		if c.cwnd > bdp*(1+queueFactor) {
			dec := beta * c.cwnd
			if dec < 2 {
				dec = 2
			}
			c.ssthresh = dec
			c.cwnd = dec
		}
		if c.cwnd > maxCWND {
			c.cwnd = maxCWND
		}
	}
	c.lastSend = t
	c.hasSent = true
	return t, nil
}

// download is one step of a download script: a payload requested at an
// offset after the previous download ended.
type download struct{ gap, bytes float64 }

// script is a session-like sequence: a burst, buffer-cap idle gaps long
// enough for slow-start restart, small and large payloads.
var script = []download{
	{0, 400e3}, {0, 1.2e6}, {0.3, 80e3}, {2.5, 2e6}, {0, 5e3}, {6, 900e3},
	{1, 3e6}, {0.05, 150e3}, {12, 1.5e6}, {0, 10e6}, {3, 250e3},
}

// runScript drives c through the script over tr with download and
// returns every end time; the oracle and the connection under test
// must agree on each, bit for bit, and so on the whole congestion path.
func runScript(tr *trace.Trace, c *Conn, dl func(*Conn, float64, float64, *trace.Trace) (float64, error)) ([]float64, error) {
	var ends []float64
	t := 0.0
	for round := 0; round < 3; round++ {
		for _, d := range script {
			end, err := dl(c, t+d.gap, d.bytes, tr)
			if err != nil {
				return ends, err
			}
			ends = append(ends, end)
			t = end
		}
	}
	return ends, nil
}

func oracleTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	trs := map[string]*trace.Trace{"constant": trace.Constant(6)}
	for _, regime := range trace.Regimes() {
		cfg, err := trace.RegimeConfig(regime, 3)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trs[regime] = tr
	}
	sq, err := trace.SquareWave(0.4, 9, 7, 400)
	if err != nil {
		t.Fatal(err)
	}
	trs["square"] = sq
	// Zero steps the download must skip, a slow sub-MSS stretch, and a
	// trace built by New (no interval: the lookup binary-searches).
	gappy, err := trace.FromSteps(0.7, []float64{3, 0, 0, 5, 0.01, 8, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	trs["gappy 0.7 s grid"] = gappy
	irregular, err := trace.New([]trace.Point{{T: 0, Mbps: 4}, {T: 1.3, Mbps: 0}, {T: 2, Mbps: 11}, {T: 9.25, Mbps: 1.5}, {T: 30, Mbps: 7}})
	if err != nil {
		t.Fatal(err)
	}
	trs["irregular"] = irregular
	return trs
}

func oracleConfigs() map[string]Config {
	noSSR := DefaultConfig()
	noSSR.SlowStartRestart = false
	return map[string]Config{
		"default":       DefaultConfig(),
		"no jitter":     deterministic(),
		"strong jitter": {RTT: 0.08, SlowStartRestart: true, JitterStd: 0.5, Seed: 42},
		"no SSR":        noSSR,
	}
}

// TestDownloadMatchesOracle pins Download — private generator or shared
// sequence — to the per-round oracle, end time for end time.
func TestDownloadMatchesOracle(t *testing.T) {
	for tname, tr := range oracleTraces(t) {
		for cname, cfg := range oracleConfigs() {
			want, wantErr := runScript(tr, newTestConn(t, cfg), downloadOracle)
			private, privErr := runScript(tr, newTestConn(t, cfg), (*Conn).Download)
			shared, sharedErr := runScript(tr, newSharedTestConn(t, cfg), (*Conn).Download)
			if !errors.Is(privErr, wantErr) || !errors.Is(sharedErr, wantErr) {
				t.Fatalf("%s, %s: errors %v and %v, oracle %v", tname, cname, privErr, sharedErr, wantErr)
			}
			for i := range want {
				if private[i] != want[i] || shared[i] != want[i] {
					t.Fatalf("%s, %s: download %d ends at %v (private) and %v (shared), oracle %v",
						tname, cname, i, private[i], shared[i], want[i])
				}
			}
		}
	}
}

// TestSharedJitterAcrossGoroutines has many shared connections of one
// seed read its sequence at once, each from its start, while the
// sequence is still being drawn (run with -race): every one must
// download as a private connection of the seed does, having read
// exactly mathx.NewRand(seed)'s NormFloat64 draws.
func TestSharedJitterAcrossGoroutines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 8191 // no other test's seed: the sequence starts undrawn
	trs := oracleTraces(t)
	want := map[string][]float64{}
	for name, tr := range trs {
		ends, err := runScript(tr, newTestConn(t, cfg), (*Conn).Download)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = ends
	}
	var draws []float64
	rng := mathx.NewRand(cfg.Seed)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var used []*Conn
	for g := 0; g < 4; g++ {
		for name, tr := range trs {
			wg.Add(1)
			go func(name string, tr *trace.Trace) {
				defer wg.Done()
				c, err := NewSharedConn(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				ends, err := runScript(tr, c, (*Conn).Download)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range ends {
					if ends[i] != want[name][i] {
						t.Errorf("%s: download %d ends at %v on the shared sequence, %v on a private one", name, i, ends[i], want[name][i])
						return
					}
				}
				mu.Lock()
				used = append(used, c)
				mu.Unlock()
			}(name, tr)
		}
	}
	wg.Wait()
	for _, c := range used {
		if c.jit != sharedJitter(cfg.Seed) {
			t.Fatal("two shared connections of one seed read different sequences")
		}
		for len(draws) < c.drawn {
			draws = append(draws, rng.NormFloat64())
		}
		for i, z := range c.tape[:c.drawn] {
			if z != draws[i] {
				t.Fatalf("draw %d read %v, mathx.NewRand(%d) draws %v", i, z, cfg.Seed, draws[i])
			}
		}
	}
}

// TestSharedJitterCap fills the registry, then asks for a new seed: its
// connection downloads as a private one does, reads a sequence nobody
// else reads, and the registry does not grow.
func TestSharedJitterCap(t *testing.T) {
	sharedJitters.mu.Lock()
	saved := sharedJitters.jitters
	sharedJitters.jitters = make(map[int64]*jitter)
	sharedJitters.mu.Unlock()
	t.Cleanup(func() {
		sharedJitters.mu.Lock()
		sharedJitters.jitters = saved
		sharedJitters.mu.Unlock()
	})

	cfg := DefaultConfig()
	for seed := int64(0); seed < sharedJitterCap; seed++ {
		cfg.Seed = 1000 + seed
		newSharedTestConn(t, cfg)
	}
	cfg.Seed = 42
	tr := oracleTraces(t)["fcc"]
	want, err := runScript(tr, newTestConn(t, cfg), (*Conn).Download)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newSharedTestConn(t, cfg), newSharedTestConn(t, cfg)
	got, err := runScript(tr, a, (*Conn).Download)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("download %d past the cap ends at %v, privately %v", i, got[i], want[i])
		}
	}
	if a.jit == b.jit {
		t.Error("two connections of a seed past the cap share a sequence")
	}
	if n := len(sharedJitters.jitters); n != sharedJitterCap {
		t.Errorf("registry holds %d sequences, cap %d", n, sharedJitterCap)
	}
}

// TestSharedConnRefusesInvalidConfig: a shared connection validates its
// config as NewConn does.
func TestSharedConnRefusesInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTT = math.NaN()
	if _, err := NewSharedConn(cfg); err == nil || !strings.Contains(err.Error(), "RTT") {
		t.Errorf("RTT NaN: err = %v, want one naming RTT", err)
	}
}

// fuzzDownloads is the most downloads one fuzz input scripts: each is a
// (gap, size) byte pair.
const fuzzDownloads = 16

// FuzzDownloadMatchesOracle runs one download script through the
// oracle and through four connections — a private one, a shared one, and
// two that take turns on a fresh sequence of the seed, so one refills
// the tape mid-download while the other reads what it drew — and then
// through a fifth, shared connection that starts only once the others
// have grown its seed's tape past every draw it reads. Each download
// must end at the oracle's time (or stall where it does), and leave the
// oracle's window and threshold, bit for bit; at the end every
// connection's next draw must be the oracle's, so each consumed as many.
//
// The trace is FromSteps(interval, steps): byte b is a step of mbps·b/64
// Mbps, so b = 0 is a zero-bandwidth stretch and b = 64 is mbps itself.
// A plan pair (g, s) waits g/16 s, on either side of the RTO, and
// fetches (s+1)²·40 bytes, from under one segment to 2.6 MB.
// jitterStd/510 is the JitterStd.
func FuzzDownloadMatchesOracle(f *testing.F) {
	plan := []byte{0, 40, 0, 200, 30, 3, 0, 255, 160, 90, 2, 0, 0, 120}
	for _, rtt := range []float64{0.16, 0.02, 0.6} {
		// At this rate one segment serializes in exactly one RTT (a
		// sub-MSS bandwidth-delay product): seeds at the division
		// guard's boundary, a few ulps and a few 1e-12 to either side.
		edge := tcp.MSS * 8 / (rtt * 1e6)
		for _, mbps := range []float64{
			edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1),
			edge * (1 - 1e-12), edge * (1 + 1e-12), edge * (1 - 3e-12), edge * (1 + 3e-12),
		} {
			f.Add(rtt, mbps, uint8(0), true, int64(1), 1.0, []byte{64, 64, 0, 64}, plan)
			f.Add(rtt, mbps, uint8(51), false, int64(3), 0.5, []byte{64, 70, 60}, plan)
		}
	}
	// The testbed path over steps with zero stretches, SSR on and off;
	// at 0.5 Mbps a 2.6 MB fetch takes hundreds of jittered rounds, so
	// the shared tapes refill mid-download.
	f.Add(0.16, 0.5, uint8(51), true, int64(1), 2.0, []byte{64, 0, 0, 128, 16, 255, 0, 40}, plan)
	f.Add(0.16, 8.0, uint8(255), false, int64(-7), 0.7, []byte{30, 0, 90, 1, 200}, plan)
	f.Add(0.08, 4.0, uint8(5), true, int64(42), 3.0, []byte{64, 0}, plan) // stalls
	f.Add(0.3, 40.0, uint8(100), true, int64(9), 10.0, []byte{255, 10, 255}, []byte{255, 255, 0, 255, 200, 255})
	f.Fuzz(func(t *testing.T, rtt, mbps float64, jitterStd uint8, ssr bool, seed int64, interval float64, steps, plan []byte) {
		if !(rtt >= 0.001 && rtt <= 1) || !(mbps >= 1e-4 && mbps <= 1e4) || !(interval >= 0.01 && interval <= 1e3) {
			t.Skip()
		}
		if len(steps) == 0 || len(steps) > 64 {
			t.Skip()
		}
		mbpsSteps := make([]float64, len(steps))
		for i, b := range steps {
			mbpsSteps[i] = mbps * float64(b) / 64
		}
		tr, err := trace.FromSteps(interval, mbpsSteps)
		if err != nil {
			t.Skip()
		}
		cfg := Config{RTT: rtt, SlowStartRestart: ssr, JitterStd: float64(jitterStd) / 510, Seed: seed}
		var script []download
		for i := 0; i+1 < len(plan) && len(script) < fuzzDownloads; i += 2 {
			script = append(script, download{float64(plan[i]) / 16, math.Pow(float64(plan[i+1])+1, 2) * 40})
		}

		oracle := newTestConn(t, cfg)
		type step struct {
			end, cwnd, ssthresh float64
			err                 error
		}
		var oracleSteps []step
		oStart := 0.0
		for _, d := range script {
			end, err := downloadOracle(oracle, oStart+d.gap, d.bytes, tr)
			oracleSteps = append(oracleSteps, step{end, oracle.cwnd, oracle.ssthresh, err})
			if err != nil {
				break
			}
			oStart = end
		}
		// check drives conns through the script in lockstep against the
		// oracle's steps.
		check := func(names []string, conns []*Conn) {
			starts := make([]float64, len(conns))
			for k, want := range oracleSteps {
				for i, c := range conns {
					got, err := c.Download(starts[i]+script[k].gap, script[k].bytes, tr)
					if !errors.Is(err, want.err) || err == nil && got != want.end {
						t.Fatalf("%s: download %d = (%v, %v), oracle (%v, %v)", names[i], k, got, err, want.end, want.err)
					}
					if c.cwnd != want.cwnd || c.ssthresh != want.ssthresh {
						t.Fatalf("%s: after download %d cwnd %v ssthresh %v, oracle %v %v", names[i], k, c.cwnd, c.ssthresh, want.cwnd, want.ssthresh)
					}
					starts[i] = got
				}
			}
		}
		turns := &jitter{seed: seed}
		conns := []*Conn{newTestConn(t, cfg), newSharedTestConn(t, cfg), newTestConn(t, cfg), newTestConn(t, cfg)}
		conns[2].rng, conns[2].jit = nil, turns
		conns[3].rng, conns[3].jit = nil, turns
		names := []string{"private", "shared", "first of two", "second of two"}
		check(names, conns)
		// The shared connection has read every draw the script takes.
		late := newSharedTestConn(t, cfg)
		check([]string{"late shared"}, []*Conn{late})
		conns, names = append(conns, late), append(names, "late shared")

		next := oracle.rng.NormFloat64()
		if got := conns[0].rng.NormFloat64(); got != next {
			t.Fatalf("private: next draw %v, oracle's %v", got, next)
		}
		for i, c := range conns[1:] {
			if got := c.jit.upTo(c.drawn)[c.drawn]; got != next {
				t.Fatalf("%s: next draw (index %d) %v, oracle's %v", names[i+1], c.drawn, got, next)
			}
		}
	})
}

func newSharedTestConn(t *testing.T, cfg Config) *Conn {
	t.Helper()
	c, err := NewSharedConn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

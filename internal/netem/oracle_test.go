package netem

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"veritas/internal/tcp"
	"veritas/internal/trace"
)

// downloadOracle is Conn.Download as it stood before a download looked
// the bandwidth up once per trace step and read its jitter through
// Conn.norm: an At (and, on a zero step, a NextChange) every round, a
// draw from the connection's private generator, math.Min and math.Max.
func downloadOracle(c *Conn, start, sizeBytes float64, tr *trace.Trace) (end float64, err error) {
	if sizeBytes <= 0 {
		return start, nil
	}
	if tr == nil {
		return 0, errors.New("netem: nil trace")
	}
	if c.cfg.SlowStartRestart && c.hasSent {
		st := c.State(start)
		st = tcp.ApplySlowStartRestart(st)
		c.cwnd = st.CWND
		c.ssthresh = st.SSThresh
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
// Jitter — to the per-round oracle, end time for end time.
func TestDownloadMatchesOracle(t *testing.T) {
	for tname, tr := range oracleTraces(t) {
		for cname, cfg := range oracleConfigs() {
			want, wantErr := runScript(tr, newTestConn(t, cfg), downloadOracle)
			private, privErr := runScript(tr, newTestConn(t, cfg), (*Conn).Download)
			jc, err := NewJitter(cfg.Seed).NewConn(cfg)
			if err != nil {
				t.Fatal(err)
			}
			shared, sharedErr := runScript(tr, jc, (*Conn).Download)
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

// TestSharedJitterAcrossGoroutines has several connections read one
// Jitter at once, each from its start, while the sequence is still being
// drawn (run with -race): every one must download as a private
// connection of the seed does.
func TestSharedJitterAcrossGoroutines(t *testing.T) {
	cfg := DefaultConfig()
	trs := oracleTraces(t)
	want := map[string][]float64{}
	for name, tr := range trs {
		ends, err := runScript(tr, newTestConn(t, cfg), (*Conn).Download)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = ends
	}
	j := NewJitter(cfg.Seed)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for name, tr := range trs {
			wg.Add(1)
			go func(name string, tr *trace.Trace) {
				defer wg.Done()
				c, err := j.NewConn(cfg)
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
						t.Errorf("%s: download %d ends at %v on the shared jitter, %v on a private one", name, i, ends[i], want[name][i])
						return
					}
				}
			}(name, tr)
		}
	}
	wg.Wait()
}

func TestJitterRefusesAnotherSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	if _, err := NewJitter(1).NewConn(cfg); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("a seed-7 config on a seed-1 jitter: err = %v", err)
	}
	cfg.RTT = math.NaN()
	if _, err := NewJitter(7).NewConn(cfg); err == nil {
		t.Error("an invalid config was accepted on a shared jitter")
	}
}

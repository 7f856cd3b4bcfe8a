package player

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/netem"
	"veritas/internal/tcp"
	"veritas/internal/trace"
	"veritas/internal/video"
)

// runOracle is Run as it stood before Run and Replay shared one loop:
// it builds the whole log, growing the throughput history chunk by
// chunk, then summarizes the log.
func runOracle(cfg Config) (*SessionLog, Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Metrics{}, err
	}
	conn, err := netem.NewConn(cfg.Net)
	if err != nil {
		return nil, Metrics{}, err
	}
	v := cfg.Video
	n := v.NumChunks()
	if cfg.MaxChunks > 0 && cfg.MaxChunks < n {
		n = cfg.MaxChunks
	}

	log := &SessionLog{
		Records:      make([]ChunkRecord, 0, n),
		BufferCap:    cfg.BufferCap,
		RTT:          cfg.Net.RTT,
		ChunkSeconds: v.ChunkSeconds(),
		ABRName:      cfg.ABR.Name(),
	}

	var (
		t         float64 // wall clock
		buffer    float64 // seconds of video buffered
		rebuf     float64
		lastQ     = -1
		switches  int
		pastTputs []float64
	)

	for i := 0; i < n; i++ {
		q := cfg.ABR.Choose(abr.Context{
			ChunkIndex:         i,
			BufferSeconds:      buffer,
			BufferCap:          cfg.BufferCap,
			LastQuality:        lastQ,
			PastThroughputMbps: pastTputs,
			Video:              v,
		})
		if q < 0 || q >= v.NumQualities() {
			return nil, Metrics{}, fmt.Errorf("player: ABR %s chose invalid quality %d", cfg.ABR.Name(), q)
		}
		size := v.Size(i, q)
		st := conn.State(t)
		end, err := conn.Download(t, size, cfg.Trace)
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("player: chunk %d: %w", i, err)
		}
		dl := end - t
		var stall float64
		if i == 0 {
			buffer = v.ChunkSeconds()
		} else {
			if dl > buffer {
				stall = dl - buffer
				buffer = 0
			} else {
				buffer -= dl
			}
			buffer += v.ChunkSeconds()
		}
		rebuf += stall
		tput := tcp.Mbps(size, dl)
		log.Records = append(log.Records, ChunkRecord{
			Index:          i,
			Quality:        q,
			SizeBytes:      size,
			Start:          t,
			End:            end,
			TCP:            st,
			ThroughputMbps: tput,
			RebufSeconds:   stall,
			SSIM:           v.SSIM(i, q),
			BitrateMbps:    v.Bitrate(i, q),
		})
		pastTputs = append(pastTputs, tput)
		if lastQ >= 0 && q != lastQ {
			switches++
		}
		lastQ = q
		t = end

		if i < n-1 {
			wait := buffer - (cfg.BufferCap - v.ChunkSeconds())
			if wait > 0 {
				t += wait
				buffer -= wait
			}
		}
	}

	m := summarizeOracle(log, rebuf, switches)
	return log, m, nil
}

func summarizeOracle(log *SessionLog, rebuf float64, switches int) Metrics {
	var ssim, bitrate float64
	for _, r := range log.Records {
		ssim += r.SSIM
		bitrate += r.BitrateMbps
	}
	nc := len(log.Records)
	playback := float64(nc) * log.ChunkSeconds
	m := Metrics{
		RebufSeconds:    rebuf,
		PlaybackSeconds: playback,
		NumChunks:       nc,
		QualitySwitches: switches,
	}
	if nc > 0 {
		m.AvgSSIM = ssim / float64(nc)
		m.AvgBitrateMbps = bitrate / float64(nc)
		m.SessionSeconds = log.Records[nc-1].End - log.Records[0].Start
	}
	if playback+rebuf > 0 {
		m.RebufRatio = rebuf / (playback + rebuf)
	}
	if math.IsNaN(m.RebufRatio) {
		m.RebufRatio = 0
	}
	return m
}

// oracleCase is one session setting; newABR gives each run a fresh
// algorithm, since algorithms carry per-session state.
type oracleCase struct {
	name   string
	cfg    Config
	newABR func() abr.Algorithm
}

func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	vid := video.Default()
	higher := video.DefaultConfig(1)
	higher.Ladder = video.HigherLadder()
	higher.NumChunks = 90
	hvid := video.MustSynthesize(higher)
	traces := map[string]*trace.Trace{"constant 3 Mbps": trace.Constant(3)}
	for _, regime := range trace.Regimes() {
		gcfg, err := trace.RegimeConfig(regime, 5)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Generate(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		traces[regime] = tr
	}
	sq, err := trace.SquareWave(1, 7, 45, 720)
	if err != nil {
		t.Fatal(err)
	}
	traces["square"] = sq
	algs := map[string]func() abr.Algorithm{
		"mpc":     func() abr.Algorithm { return abr.NewMPC() },
		"bba":     func() abr.Algorithm { return abr.NewBBA() },
		"bola":    func() abr.Algorithm { return abr.NewBOLA() },
		"festive": func() abr.Algorithm { return abr.NewFestive() },
		"fixed 7": func() abr.Algorithm { return &abr.Fixed{Quality: 7} },
	}
	var cases []oracleCase
	for tname, tr := range traces {
		for aname, newABR := range algs {
			for _, buf := range []float64{5, 30} {
				cases = append(cases, oracleCase{
					name:   fmt.Sprintf("%s, %s, %g s", tname, aname, buf),
					cfg:    Config{Video: vid, Trace: tr, Net: netem.DefaultConfig(), BufferCap: buf},
					newABR: newABR,
				})
			}
		}
	}
	quiet := netem.DefaultConfig()
	quiet.JitterStd = 0
	cases = append(cases,
		oracleCase{"fcc, bba, 40 chunks", Config{Video: vid, Trace: traces["fcc"], Net: netem.DefaultConfig(), BufferCap: 5, MaxChunks: 40}, algs["bba"]},
		oracleCase{"lte, mpc, no jitter", Config{Video: vid, Trace: traces["lte"], Net: quiet, BufferCap: 5}, algs["mpc"]},
		oracleCase{"wifi, bola, higher ladder", Config{Video: hvid, Trace: traces["wifi"], Net: netem.DefaultConfig(), BufferCap: 30}, algs["bola"]},
	)
	return cases
}

// TestRunAndReplayMatchOracle pins the shared loop to the old Run: Run
// logs the same records and both Run and Replay — with a private
// generator or one shared Jitter read by every case of its seed — return
// the same metrics, bit for bit.
func TestRunAndReplayMatchOracle(t *testing.T) {
	jitters := map[int64]*netem.Jitter{}
	for _, c := range oracleCases(t) {
		cfg := c.cfg
		cfg.ABR = c.newABR()
		wantLog, want, err := runOracle(cfg)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		cfg.ABR = c.newABR()
		log, got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != want {
			t.Errorf("%s: Run metrics %+v, oracle %+v", c.name, got, want)
		}
		if len(log.Records) != len(wantLog.Records) || log.BufferCap != wantLog.BufferCap ||
			log.RTT != wantLog.RTT || log.ChunkSeconds != wantLog.ChunkSeconds || log.ABRName != wantLog.ABRName {
			t.Fatalf("%s: log header or length differs from the oracle's", c.name)
		}
		for i := range log.Records {
			if log.Records[i] != wantLog.Records[i] {
				t.Fatalf("%s: record %d = %+v, oracle %+v", c.name, i, log.Records[i], wantLog.Records[i])
			}
		}
		j := jitters[cfg.Net.Seed]
		if j == nil {
			j = netem.NewJitter(cfg.Net.Seed)
			jitters[cfg.Net.Seed] = j
		}
		for _, jit := range []*netem.Jitter{nil, j} {
			cfg.ABR = c.newABR()
			got, err := Replay(cfg, jit)
			if err != nil {
				t.Fatalf("%s: Replay: %v", c.name, err)
			}
			if got != want {
				t.Errorf("%s: Replay (shared jitter %v) metrics %+v, oracle %+v", c.name, jit != nil, got, want)
			}
		}
	}
}

// TestReplaySharedJitterConcurrently replays several settings over one
// Jitter from several goroutines at once (run with -race).
func TestReplaySharedJitterConcurrently(t *testing.T) {
	cases := oracleCases(t)[:12]
	want := make([]Metrics, len(cases))
	for i, c := range cases {
		cfg := c.cfg
		cfg.ABR = c.newABR()
		var err error
		if _, want[i], err = runOracle(cfg); err != nil {
			t.Fatal(err)
		}
	}
	j := netem.NewJitter(netem.DefaultConfig().Seed)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		for i, c := range cases {
			wg.Add(1)
			go func(i int, c oracleCase) {
				defer wg.Done()
				cfg := c.cfg
				cfg.ABR = c.newABR()
				got, err := Replay(cfg, j)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("%s: concurrent replay %+v, oracle %+v", c.name, got, want[i])
				}
			}(i, c)
		}
	}
	wg.Wait()
}

// TestRefusesNonFiniteBufferCap: a NaN buffer passes "buffer <= one
// chunk", and +Inf would never wait — both used to simulate a whole
// session and fail only when the log was encoded.
func TestRefusesNonFiniteBufferCap(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := testConfig(t, 5, abr.NewBBA())
		cfg.BufferCap = v
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "BufferCap") {
			t.Errorf("BufferCap %v: err = %v, want one naming BufferCap", v, err)
		}
		if _, _, err := Run(cfg); err == nil {
			t.Errorf("BufferCap %v: Run accepted it", v)
		}
		if _, err := Replay(cfg, nil); err == nil {
			t.Errorf("BufferCap %v: Replay accepted it", v)
		}
	}
	cfg := testConfig(t, 5, abr.NewBBA())
	cfg.Net.RTT = math.NaN()
	if _, err := Replay(cfg, netem.NewJitter(cfg.Net.Seed)); err == nil || !strings.Contains(err.Error(), "RTT") {
		t.Errorf("RTT NaN: Replay err = %v, want one naming RTT", err)
	}
}

// BenchmarkReplay times the replay layer alone: one 300-chunk BBA
// session replayed for its metrics over a 5 s-grid FCC trace, its jitter
// read from a shared sequence that is already drawn — a what-if arm's
// unit of work.
func BenchmarkReplay(b *testing.B) {
	tr, err := trace.Generate(trace.DefaultFCC(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Video: video.Default(), Trace: tr, Net: netem.DefaultConfig(), BufferCap: DefaultBufferCap}
	j := netem.NewJitter(cfg.Net.Seed)
	cfg.ABR = abr.NewBBA()
	if _, err := Replay(cfg, j); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.ABR = abr.NewBBA()
		if _, err := Replay(cfg, j); err != nil {
			b.Fatal(err)
		}
	}
}

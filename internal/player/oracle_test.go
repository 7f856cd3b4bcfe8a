package player

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/mathx"
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
// logs the same records and Run and Replay — a private generator and the
// process's shared sequence of the seed — return the same metrics, bit
// for bit.
func TestRunAndReplayMatchOracle(t *testing.T) {
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
		cfg.ABR = c.newABR()
		if got, err = Replay(cfg); err != nil {
			t.Fatalf("%s: Replay: %v", c.name, err)
		}
		if got != want {
			t.Errorf("%s: Replay metrics %+v, oracle %+v", c.name, got, want)
		}
	}
}

// TestScratchMatchesOracle streams every oracle case — clips of 300, 90
// and 40 chunks, each ABR, both buffers — through one Scratch and one
// generator, alternating Run and Replay, with a session that stalls
// mid-download (leaving the connection and the history dirty) between
// cases. Every log and metric must be the oracle's, bit for bit, and
// every log Run returned must still hold its records once the Scratch
// has streamed everything else: nothing returned points into it.
func TestScratchMatchesOracle(t *testing.T) {
	dying, err := trace.New([]trace.Point{{T: 0, Mbps: 5}, {T: 30, Mbps: 0}})
	if err != nil {
		t.Fatal(err)
	}
	stall := Config{Video: video.Default(), Trace: dying, Net: netem.DefaultConfig(), BufferCap: 30}
	var sc Scratch
	rng := mathx.NewRand(99)
	type kept struct {
		name string
		log  *SessionLog
		want []ChunkRecord
	}
	var logs []kept
	for i, c := range oracleCases(t) {
		cfg := c.cfg
		cfg.ABR = c.newABR()
		wantLog, want, err := runOracle(cfg)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		cfg.ABR = c.newABR()
		log, got, err := sc.Run(cfg, rng)
		if err != nil {
			t.Fatalf("%s: Scratch.Run: %v", c.name, err)
		}
		if got != want {
			t.Errorf("%s: Scratch.Run metrics %+v, oracle %+v", c.name, got, want)
		}
		logs = append(logs, kept{c.name, log, wantLog.Records})
		cfg.ABR = c.newABR()
		if got, err = sc.Replay(cfg); err != nil {
			t.Fatalf("%s: Scratch.Replay: %v", c.name, err)
		}
		if got != want {
			t.Errorf("%s: Scratch.Replay metrics %+v, oracle %+v", c.name, got, want)
		}
		if i%3 == 0 {
			stall.ABR = abr.NewBBA()
			if _, err := sc.Replay(stall); !errors.Is(err, netem.ErrStalled) {
				t.Fatalf("replay over a dying link: %v, want %v", err, netem.ErrStalled)
			}
			stall.ABR = abr.NewMPC()
			if _, _, err := sc.Run(stall, rng); !errors.Is(err, netem.ErrStalled) {
				t.Fatalf("session over a dying link: %v, want %v", err, netem.ErrStalled)
			}
		}
	}
	for _, k := range logs {
		if len(k.log.Records) != len(k.want) {
			t.Fatalf("%s: kept log has %d records, oracle %d", k.name, len(k.log.Records), len(k.want))
		}
		for i := range k.want {
			if k.log.Records[i] != k.want[i] {
				t.Fatalf("%s: kept log's record %d = %+v, oracle %+v", k.name, i, k.log.Records[i], k.want[i])
			}
		}
	}
}

// TestReplaySharedJitterConcurrently replays several settings of one
// seed from several goroutines at once (run with -race), all reading the
// seed's one shared sequence.
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
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		for i, c := range cases {
			wg.Add(1)
			go func(i int, c oracleCase) {
				defer wg.Done()
				cfg := c.cfg
				cfg.ABR = c.newABR()
				got, err := Replay(cfg)
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
		if _, err := Replay(cfg); err == nil {
			t.Errorf("BufferCap %v: Replay accepted it", v)
		}
	}
	cfg := testConfig(t, 5, abr.NewBBA())
	cfg.Net.RTT = math.NaN()
	if _, err := Replay(cfg); err == nil || !strings.Contains(err.Error(), "RTT") {
		t.Errorf("RTT NaN: Replay err = %v, want one naming RTT", err)
	}
}

// BenchmarkReplay times the replay layer alone: one 300-chunk BBA
// session replayed for its metrics over a 5 s-grid FCC trace, its jitter
// read from the seed's shared sequence, already drawn — a what-if arm's
// unit of work.
func BenchmarkReplay(b *testing.B) {
	tr, err := trace.Generate(trace.DefaultFCC(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Video: video.Default(), Trace: tr, Net: netem.DefaultConfig(), BufferCap: DefaultBufferCap}
	cfg.ABR = abr.NewBBA()
	if _, err := Replay(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.ABR = abr.NewBBA()
		if _, err := Replay(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

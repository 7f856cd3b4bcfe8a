// Package player simulates a video streaming session: the client-side
// loop that asks an ABR algorithm for the next quality, downloads the
// chunk over an emulated connection, maintains the playback buffer, and
// logs exactly the observations the paper says a deployed system records
// (chunk size, start/end times, and the TCP state at each chunk start).
//
// The buffer-cap wait between downloads is load-bearing: it creates the
// idle gaps that trigger TCP slow-start restart, which is why observed
// throughput under-reports ground-truth bandwidth and why Veritas's
// abduction is needed at all.
package player

import (
	"errors"
	"fmt"
	"math"

	"veritas/internal/abr"
	"veritas/internal/mathx"
	"veritas/internal/netem"
	"veritas/internal/tcp"
	"veritas/internal/trace"
	"veritas/internal/video"
)

// DefaultBufferCap is the deployed (Setting A) playback buffer of the
// paper's evaluation, in seconds: the low-latency setting every layer
// falls back to when a buffer size is left zero.
const DefaultBufferCap = 5.0

// Config describes one session.
type Config struct {
	Video     *video.Video
	ABR       abr.Algorithm
	Trace     *trace.Trace // ground-truth bandwidth driving the emulator
	Net       netem.Config
	BufferCap float64 // seconds of video the player may buffer (callers default it to DefaultBufferCap)
	// MaxChunks limits the session length (0 = whole video). Used by
	// interventional experiments that need session prefixes.
	MaxChunks int
}

// Validate reports the first problem with the config, if any.
func (c Config) Validate() error {
	switch {
	case c.Video == nil:
		return errors.New("player: nil video")
	case c.ABR == nil:
		return errors.New("player: nil ABR algorithm")
	case c.Trace == nil:
		return errors.New("player: nil trace")
	case math.IsNaN(c.BufferCap) || math.IsInf(c.BufferCap, 0):
		return fmt.Errorf("player: BufferCap %v is not a finite number", c.BufferCap)
	case c.BufferCap <= c.Video.ChunkSeconds():
		return fmt.Errorf("player: buffer cap %v must exceed one chunk duration %v",
			c.BufferCap, c.Video.ChunkSeconds())
	case c.MaxChunks < 0:
		return fmt.Errorf("player: MaxChunks %d < 0", c.MaxChunks)
	}
	return c.Net.Validate()
}

// ChunkRecord is the per-chunk log line of a session — the observed
// variables of the paper's causal DAG (S_n, D_n, s_n, e_n, W_sn, Y_n).
type ChunkRecord struct {
	Index          int       // chunk index n
	Quality        int       // chosen ladder rung
	SizeBytes      float64   // S_n
	Start          float64   // s_n, seconds
	End            float64   // e_n, seconds
	TCP            tcp.State // W_sn, logged at download start
	ThroughputMbps float64   // Y_n = S_n / (e_n - s_n)
	RebufSeconds   float64   // stall time charged to this chunk
	SSIM           float64   // quality metric of the chunk shown
	BitrateMbps    float64   // actual encoded bitrate of the chunk
}

// DownloadSeconds returns D_n.
func (r ChunkRecord) DownloadSeconds() float64 { return r.End - r.Start }

// SessionLog is everything a deployed system would log for one session.
// It intentionally excludes the ground-truth bandwidth trace: that is
// the latent confounder Veritas must abduce.
type SessionLog struct {
	Records      []ChunkRecord
	BufferCap    float64
	RTT          float64
	ChunkSeconds float64
	ABRName      string
}

// Prefix returns a log containing only the first n chunk records (a view
// sharing backing storage).
func (l *SessionLog) Prefix(n int) *SessionLog {
	if n > len(l.Records) {
		n = len(l.Records)
	}
	cp := *l
	cp.Records = l.Records[:n]
	return &cp
}

// Metrics summarizes session quality the way the paper reports it.
type Metrics struct {
	AvgSSIM         float64 // mean SSIM over chunks shown
	RebufRatio      float64 // rebuffer seconds / (playback + rebuffer), fraction
	AvgBitrateMbps  float64 // mean encoded bitrate of chunks shown
	RebufSeconds    float64
	PlaybackSeconds float64
	SessionSeconds  float64 // wall-clock time from first request to last download
	NumChunks       int
	QualitySwitches int
}

// chunks returns how many chunks the session streams.
func (c Config) chunks() int {
	n := c.Video.NumChunks()
	if c.MaxChunks > 0 && c.MaxChunks < n {
		n = c.MaxChunks
	}
	return n
}

// Run simulates the session and returns its log and metrics.
func Run(cfg Config) (*SessionLog, Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Metrics{}, err
	}
	conn, err := netem.NewConn(cfg.Net)
	if err != nil {
		return nil, Metrics{}, err
	}
	log := newLog(cfg)
	m, err := run(cfg, conn, log, make([]float64, 0, cfg.chunks()))
	if err != nil {
		return nil, Metrics{}, err
	}
	return log, m, nil
}

// newLog returns the empty log of a validated config's session.
func newLog(cfg Config) *SessionLog {
	return &SessionLog{
		Records:      make([]ChunkRecord, 0, cfg.chunks()),
		BufferCap:    cfg.BufferCap,
		RTT:          cfg.Net.RTT,
		ChunkSeconds: cfg.Video.ChunkSeconds(),
		ABRName:      cfg.ABR.Name(),
	}
}

// Replay simulates the session for its metrics alone — the what-if
// replays of a counterfactual query, which keep no log. Its connection
// reads its jitter from the process's one draw sequence for cfg.Net.Seed
// (netem.NewSharedConn), which every replay of that seed shares instead
// of seeding a generator of its own; the metrics are Run's, bit for bit.
func Replay(cfg Config) (Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	conn, err := netem.NewSharedConn(cfg.Net)
	if err != nil {
		return Metrics{}, err
	}
	return run(cfg, conn, nil, make([]float64, 0, cfg.chunks()))
}

// Scratch is a replay arena: one connection and one throughput history
// that every session streamed through it reuses, instead of allocating
// a netem.Conn and a history of one float per chunk per session. A
// fleet worker streams its deployed session and every what-if replay of
// every session through one Scratch. Run and Replay through a Scratch
// return exactly what the package's Run and Replay return, and nothing
// they return points into the Scratch: the connection is reset and the
// history refilled from its start by each call (the ABR contexts only
// read the history, during the call). The zero Scratch is ready to use;
// it is not safe for concurrent use.
type Scratch struct {
	conn  netem.Conn
	tputs []float64
}

// history returns the reusable throughput history, emptied, with room
// for the config's chunks.
func (sc *Scratch) history(cfg Config) []float64 {
	if n := cfg.chunks(); cap(sc.tputs) < n {
		sc.tputs = make([]float64, 0, n)
	}
	return sc.tputs[:0]
}

// Run is Run(cfg) with the Scratch's connection, whose jitter comes from
// rng reseeded with cfg.Net.Seed (netem.(*Conn).Reset): the same log and
// metrics, bit for bit. The log is freshly allocated and the caller's.
func (sc *Scratch) Run(cfg Config, rng *mathx.Rand) (*SessionLog, Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Metrics{}, err
	}
	if err := sc.conn.Reset(cfg.Net, rng); err != nil {
		return nil, Metrics{}, err
	}
	log := newLog(cfg)
	m, err := run(cfg, &sc.conn, log, sc.history(cfg))
	if err != nil {
		return nil, Metrics{}, err
	}
	return log, m, nil
}

// Replay is Replay(cfg) with the Scratch's connection on the process's
// jitter sequence for cfg.Net.Seed (netem.(*Conn).ResetShared): the same
// metrics, bit for bit.
func (sc *Scratch) Replay(cfg Config) (Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	if err := sc.conn.ResetShared(cfg.Net); err != nil {
		return Metrics{}, err
	}
	return run(cfg, &sc.conn, nil, sc.history(cfg))
}

// run is the session loop of Run and Replay over a validated config: it
// appends a record per chunk to log when log is not nil, and sums the
// metrics as it goes, in record order. pastTputs is the empty history
// the loop appends each chunk's throughput to, with room for every
// chunk.
func run(cfg Config, conn *netem.Conn, log *SessionLog, pastTputs []float64) (Metrics, error) {
	v := cfg.Video
	n := cfg.chunks()
	var (
		t             float64 // wall clock
		buffer        float64 // seconds of video buffered
		rebuf         float64
		ssim, bitrate float64
		lastQ         = -1
		switches      int
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
			return Metrics{}, fmt.Errorf("player: ABR %s chose invalid quality %d", cfg.ABR.Name(), q)
		}
		size := v.Size(i, q)
		var st tcp.State // the state the download starts from, read only for the log
		if log != nil {
			st = conn.State(t)
		}
		end, err := conn.Download(t, size, cfg.Trace)
		if err != nil {
			return Metrics{}, fmt.Errorf("player: chunk %d: %w", i, err)
		}
		dl := end - t
		var stall float64
		if i == 0 {
			// Startup: playback begins once the first chunk arrives;
			// startup delay is not charged as rebuffering, matching the
			// rebuffering-ratio definition used by the paper's testbed.
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
		chunkSSIM, chunkMbps := v.SSIM(i, q), v.Bitrate(i, q)
		if log != nil {
			log.Records = append(log.Records, ChunkRecord{
				Index:          i,
				Quality:        q,
				SizeBytes:      size,
				Start:          t,
				End:            end,
				TCP:            st,
				ThroughputMbps: tput,
				RebufSeconds:   stall,
				SSIM:           chunkSSIM,
				BitrateMbps:    chunkMbps,
			})
		}
		ssim += chunkSSIM
		bitrate += chunkMbps
		pastTputs = append(pastTputs, tput)
		if lastQ >= 0 && q != lastQ {
			switches++
		}
		lastQ = q
		t = end

		// Buffer cap: pause requesting until there is room for the next
		// chunk. Playback continues during the pause. These off-periods
		// are where TCP slow-start restart bites.
		if i < n-1 {
			wait := buffer - (cfg.BufferCap - v.ChunkSeconds())
			if wait > 0 {
				t += wait
				buffer -= wait
			}
		}
	}

	playback := float64(n) * v.ChunkSeconds()
	m := Metrics{
		RebufSeconds:    rebuf,
		PlaybackSeconds: playback,
		NumChunks:       n,
		QualitySwitches: switches,
	}
	if n > 0 {
		m.AvgSSIM = ssim / float64(n)
		m.AvgBitrateMbps = bitrate / float64(n)
		m.SessionSeconds = t // the last download's end: the first started at 0
	}
	if playback+rebuf > 0 {
		m.RebufRatio = rebuf / (playback + rebuf)
	}
	if math.IsNaN(m.RebufRatio) {
		m.RebufRatio = 0
	}
	return m, nil
}

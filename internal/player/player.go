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

// Run simulates the session and returns its log and metrics.
func Run(cfg Config) (*SessionLog, Metrics, error) {
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

	m := summarize(log, rebuf, switches)
	return log, m, nil
}

func summarize(log *SessionLog, rebuf float64, switches int) Metrics {
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

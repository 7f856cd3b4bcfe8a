package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Mahimahi trace support. The paper's testbed replays bandwidth through
// Mahimahi's mm-link, whose trace format is one integer per line: the
// millisecond timestamp of a delivery opportunity for one MTU-sized
// (1500-byte) packet. This file converts between that format and the
// piecewise-constant Mbps representation used everywhere else, so logs
// and traces can round-trip with the original toolchain.

// MahimahiPacketBytes is the payload each delivery opportunity carries.
const MahimahiPacketBytes = 1500

// EncodeMahimahi writes the trace as an mm-link packet-delivery
// schedule covering [0, horizon) seconds. Within each constant-rate
// span, opportunities are spaced uniformly at rate/packet intervals.
func (tr *Trace) EncodeMahimahi(w io.Writer, horizon float64) error {
	if horizon <= 0 {
		return errors.New("trace: EncodeMahimahi requires horizon > 0")
	}
	bw := bufio.NewWriter(w)
	const bitsPerPacket = MahimahiPacketBytes * 8
	t := 0.0
	// Credit-based emission: accumulate fractional packets so slow
	// spans still emit at the right long-run rate.
	credit := 0.0
	lastMs := -1
	for t < horizon {
		rate, next := tr.Segment(t) // Mbps
		next = math.Min(next, horizon)
		if rate <= 0 {
			t = next
			continue
		}
		pktPerSec := rate * 1e6 / bitsPerPacket
		span := next - t
		credit += span * pktPerSec
		n := int(credit)
		credit -= float64(n)
		for i := 0; i < n; i++ {
			ts := t + (float64(i)+0.5)*span/float64(n)
			ms := int(ts * 1000)
			// Timestamps must be non-decreasing; rates above one packet
			// per millisecond legitimately repeat a timestamp, exactly
			// as real mm-link traces do.
			if ms < lastMs {
				ms = lastMs
			}
			lastMs = ms
			if _, err := fmt.Fprintf(bw, "%d\n", ms); err != nil {
				return err
			}
		}
		t = next
	}
	return bw.Flush()
}

// DecodeMahimahi parses an mm-link schedule and reconstructs a
// piecewise-constant Mbps trace by counting delivery opportunities per
// bucketSecs-wide bucket. The last partial bucket is dropped (its rate
// would be biased low).
func DecodeMahimahi(r io.Reader, bucketSecs float64) (*Trace, error) {
	if bucketSecs <= 0 {
		return nil, errors.New("trace: DecodeMahimahi requires bucketSecs > 0")
	}
	sc := bufio.NewScanner(r)
	var stamps []int
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ms, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("trace: mahimahi line %d: %w", lineNo, err)
		}
		if ms < 0 {
			return nil, fmt.Errorf("trace: mahimahi line %d: negative timestamp", lineNo)
		}
		stamps = append(stamps, ms)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(stamps) == 0 {
		return nil, errors.New("trace: empty mahimahi trace")
	}
	if !sort.IntsAreSorted(stamps) {
		sort.Ints(stamps)
	}

	horizon := float64(stamps[len(stamps)-1]+1) / 1000
	// Round to the nearest bucket boundary: a bucket covered by more
	// than half its width is kept, a short tail is dropped (its rate
	// estimate would be biased).
	nBuckets := int(math.Round(horizon / bucketSecs))
	if nBuckets == 0 {
		return nil, fmt.Errorf("trace: mahimahi trace shorter than half a %v s bucket", bucketSecs)
	}
	counts := make([]int, nBuckets)
	for _, ms := range stamps {
		b := int(float64(ms) / 1000 / bucketSecs)
		if b < nBuckets {
			counts[b]++
		}
	}
	vals := make([]float64, nBuckets)
	for i, c := range counts {
		vals[i] = float64(c) * MahimahiPacketBytes * 8 / 1e6 / bucketSecs
	}
	return FromSteps(bucketSecs, vals)
}

package dispatch

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scanCap is the line cap scanStdout gives its scanner.
const scanCap = 1 << 20

// stdoutLines counts the lines a scanner splits b into before the first
// one too long for scanCap (with its newline), and reports whether there
// is such a line.
func stdoutLines(b []byte) (n int, tooLong bool) {
	for len(b) > 0 {
		line, rest, _ := bytes.Cut(b, []byte("\n"))
		if len(line) >= scanCap {
			return n, true
		}
		n, b = n+1, rest
	}
	return n, false
}

// FuzzWorkerStdout: a worker's stdout is whatever its process wrote, a
// crashing or hostile one included. scanStdout turns every line into
// exactly one event and never panics; a line past the scanner's 1 MiB
// cap ends the scan with one supervisor line event, and the rest of the
// pipe is drained rather than left full — a full pipe would block the
// worker's writes and wedge the dispatch. CI fuzzes it with
// `go test -run '^$' -fuzz '^FuzzWorkerStdout$' -fuzztime 10s`.
func FuzzWorkerStdout(f *testing.F) {
	parent, err := os.ReadFile(filepath.Join("testdata", "worker_stdout_pr18.ndjson"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	f.Add(parent[:len(parent)/2])
	f.Add([]byte("plain\n{\"type\":\"progress\",\"done\":1,\"total\":2}\r\n{bad json\n\n\nno newline at the end"))
	f.Add([]byte(`{"type":"telemetry"}` + "\n" + `{"type":"traces","traces":null}` + "\n" + `{"type":"progress","done":"x"}`))
	f.Add(append(bytes.Repeat([]byte("x"), scanCap-1), "\nfits\n"...))
	f.Add(append(bytes.Repeat([]byte("x"), scanCap), "\nafter the cap\n"...))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, stdout []byte) {
		r := bytes.NewReader(stdout)
		var events []Event
		scanStdout(r, Worker{Shard: 1, Shards: 2}, 42, func(e Event) { events = append(events, e) })
		if r.Len() != 0 {
			t.Fatalf("%d bytes left in the pipe", r.Len())
		}
		lines, tooLong := stdoutLines(stdout)
		want := lines
		if tooLong {
			want++
		}
		if len(events) != want {
			t.Fatalf("%d events for %d lines (a line past the cap: %v)", len(events), lines, tooLong)
		}
		if tooLong && !strings.HasPrefix(events[len(events)-1].Line, "[supervisor] stdout scan aborted") {
			t.Fatalf("the scan hit a line past the cap and ended with %+v", events[len(events)-1])
		}
		for _, e := range events {
			if e.Shard != 1 || e.PID != 42 {
				t.Fatalf("event lost its worker: %+v", e)
			}
		}
	})
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"veritas/internal/player"
)

// The goldens in testdata were written by the four single-purpose mains
// this binary replaced (tracegen, sessionrun, abduct, whatif) at the
// same flags, and chain: trace.txt is tracegen's output and
// sessionrun's input, log.json is sessionrun's output and the input of
// abduct and whatif.

// invoke runs one invocation in-process and returns its stdout, stderr
// and exit status.
func invoke(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func testdata(t *testing.T, name string) string {
	t.Helper()
	path, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(testdata(t, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestGoldenStdout(t *testing.T) {
	tr, log := testdata(t, "trace.txt"), testdata(t, "log.json")
	cases := []struct {
		golden string
		args   []string
	}{
		{"trace.txt", []string{"tracegen"}},
		{"trace_mahimahi.txt", []string{"tracegen", "-format", "mahimahi", "-horizon", "10", "-min", "0.5", "-max", "2"}},
		{"log.json", []string{"sessionrun", "-trace", tr, "-chunks", "20"}},
		{"baseline.txt", []string{"abduct", "-log", log, "-baseline"}},
		{"viterbi.txt", []string{"abduct", "-log", log, "-viterbi"}},
		{"whatif_bba.txt", []string{"whatif", "-log", log, "-abr", "bba", "-buffer", "30", "-truth", tr}},
		{"whatif_higher.txt", []string{"whatif", "-log", log, "-ladder", "higher"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			stdout, stderr, code := invoke(t, c.args...)
			if code != 0 {
				t.Fatalf("%v: exit %d: %s", c.args, code, stderr)
			}
			if want := golden(t, c.golden); stdout != want {
				t.Errorf("%v: stdout differs from testdata/%s:\n%s", c.args, c.golden, stdout)
			}
		})
	}
}

// TestGoldenAbductOut checks abduct -out: its one stdout line and every
// file it writes.
func TestGoldenAbductOut(t *testing.T) {
	log := testdata(t, "log.json")
	want := testdata(t, "abduct_out")
	wantStdout := golden(t, "abduct_stdout.txt")
	t.Chdir(t.TempDir())
	stdout, stderr, code := invoke(t, "abduct", "-log", log, "-out", "d/")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if stdout != wantStdout {
		t.Errorf("stdout %q, want %q", stdout, wantStdout)
	}
	wrote, err := os.ReadDir("d")
	if err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrote) != len(files) {
		t.Errorf("wrote %d files, want %d", len(wrote), len(files))
	}
	for _, f := range files {
		got, err := os.ReadFile(filepath.Join("d", f.Name()))
		if err != nil {
			t.Error(err)
			continue
		}
		if g, _ := os.ReadFile(filepath.Join(want, f.Name())); !bytes.Equal(got, g) {
			t.Errorf("d/%s differs from testdata/abduct_out/%s", f.Name(), f.Name())
		}
	}
}

// TestDefaultKIsReported: -k 0 means the default K, and both tools
// report the number of samples actually drawn, not the flag.
func TestDefaultKIsReported(t *testing.T) {
	log := testdata(t, "log.json")
	t.Chdir(t.TempDir())
	stdout, stderr, code := invoke(t, "abduct", "-log", log, "-k", "0", "-out", "d")
	if code != 0 {
		t.Fatalf("abduct: exit %d: %s", code, stderr)
	}
	if want := "wrote 5 samples + viterbi to d\n"; stdout != want {
		t.Errorf("abduct -k 0: stdout %q, want %q", stdout, want)
	}
	if n, _ := os.ReadDir("d"); len(n) != 6 {
		t.Errorf("abduct -k 0 wrote %d files, want 5 samples + viterbi", len(n))
	}
	stdout, stderr, code = invoke(t, "whatif", "-log", log, "-k", "0")
	if code != 0 {
		t.Fatalf("whatif: exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "what-if: abr=mpc buffer=5s ladder=default (K=5 samples)\n") {
		t.Errorf("whatif -k 0: header %q", strings.SplitN(stdout, "\n", 2)[0])
	}
}

func TestExitCodes(t *testing.T) {
	tr, log := testdata(t, "trace.txt"), testdata(t, "log.json")
	missing := filepath.Join(t.TempDir(), "missing.json")
	cases := []struct {
		args   []string
		code   int
		stderr string // a substring the message must carry
	}{
		{nil, 2, "usage: veritas"},
		{[]string{"replay"}, 2, "usage: veritas"},
		{[]string{"abduct", "-h"}, 0, "Usage of veritas abduct"},
		{[]string{"abduct", "-zz"}, 2, "veritas abduct: flag provided but not defined"},

		// Required flags.
		{[]string{"tracegen", "-n", "2"}, 2, "veritas tracegen: -n > 1 requires -out"},
		{[]string{"sessionrun"}, 2, "veritas sessionrun: -trace is required"},
		{[]string{"abduct"}, 2, "veritas abduct: -log is required"},
		{[]string{"abduct", "-log", log}, 2, "veritas abduct: -out is required"},
		{[]string{"whatif"}, 2, "veritas whatif: -log is required"},

		// Unknown names.
		{[]string{"tracegen", "-format", "wav"}, 2, `unknown format "wav"`},
		{[]string{"sessionrun", "-trace", tr, "-abr", "vhs"}, 2, `unknown ABR "vhs"`},
		{[]string{"sessionrun", "-trace", tr, "-ladder", "tall"}, 2, `unknown ladder "tall"`},
		{[]string{"whatif", "-log", log, "-abr", "vhs"}, 2, `unknown ABR "vhs"`},
		{[]string{"whatif", "-log", log, "-abr", "random"}, 2, `unknown ABR "random"`},
		{[]string{"whatif", "-log", log, "-ladder", "tall"}, 2, `unknown ladder "tall"`},

		// A fixed rung must name one of the chosen ladder's rungs.
		{[]string{"sessionrun", "-trace", tr, "-chunks", "3", "-abr", "fixed:7"}, 0, ""},
		{[]string{"sessionrun", "-trace", tr, "-chunks", "3", "-abr", "fixed:0"}, 0, ""},
		{[]string{"sessionrun", "-trace", tr, "-chunks", "3", "-abr", "fixed:8"}, 2, "0..7"},
		{[]string{"sessionrun", "-trace", tr, "-chunks", "3", "-abr", "fixed:99"}, 2, "0..7"},
		{[]string{"sessionrun", "-trace", tr, "-chunks", "3", "-abr", "fixed:-1"}, 2, "0..7"},
		{[]string{"sessionrun", "-trace", tr, "-chunks", "3", "-abr", "fixed:3x"}, 2, "0..7"},
		{[]string{"sessionrun", "-trace", tr, "-chunks", "3", "-abr", "fixed:"}, 2, "0..7"},
		{[]string{"sessionrun", "-trace", tr, "-chunks", "3", "-abr", "fixed:7", "-ladder", "higher"}, 2, "0..4"},

		// Range errors are usage errors, found before any input is read.
		{[]string{"abduct", "-log", missing, "-k", "-3"}, 2, "veritas abduct: -k -3"},
		{[]string{"whatif", "-log", missing, "-k", "-3"}, 2, "veritas whatif: -k -3"},
		{[]string{"tracegen", "-n", "0"}, 2, "veritas tracegen: -n 0"},
		{[]string{"tracegen", "-n", "0", "-format", "mahimahi"}, 2, "veritas tracegen: -n 0"},
		{[]string{"tracegen", "-n", "-4", "-out", t.TempDir()}, 2, "-n -4"},

		// Failures past the flags exit 1.
		{[]string{"abduct", "-log", missing, "-baseline"}, 1, "veritas abduct: open"},
		{[]string{"whatif", "-log", log, "-truth", missing}, 1, "veritas whatif: open"},
		{[]string{"sessionrun", "-trace", log}, 1, "veritas sessionrun: trace: line 1"},
		{[]string{"sessionrun", "-trace", tr, "-buffer", "0"}, 1, "-buffer 0"},
		{[]string{"whatif", "-log", log, "-buffer", "0"}, 1, "-buffer 0"},
		{[]string{"sessionrun", "-trace", tr, "-buffer", "-3"}, 1, "buffer cap -3"},
	}
	for _, c := range cases {
		_, stderr, code := invoke(t, c.args...)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr)
		}
		if !strings.Contains(stderr, c.stderr) {
			t.Errorf("%v: stderr %q does not mention %q", c.args, stderr, c.stderr)
		}
	}
}

// TestHostileInputs: absurd numbers in a session log, or in a flag,
// end in exit 1 with a message naming the record or the field, never a
// panic or a runaway allocation.
func TestHostileInputs(t *testing.T) {
	f, err := os.Open(testdata(t, "log.json"))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := player.DecodeLog(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	last := len(clean.Records) - 1
	dir := t.TempDir()
	hostile := func(name string, edit func(recs []player.ChunkRecord)) string {
		log := *clean
		log.Records = append([]player.ChunkRecord(nil), clean.Records...)
		edit(log.Records)
		var buf bytes.Buffer
		if err := player.EncodeLog(&buf, &log); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	tput := hostile("tput", func(r []player.ChunkRecord) { r[3].ThroughputMbps = 1e300 })
	start := hostile("start", func(r []player.ChunkRecord) { r[3].Start = 1e18 })
	end := hostile("end", func(r []player.ChunkRecord) { r[last].End = 1e12 })
	cwnd := hostile("cwnd", func(r []player.ChunkRecord) { r[3].TCP.CWND = 0 })
	size := hostile("size", func(r []player.ChunkRecord) { r[3].SizeBytes = 1e9 })
	rec3, recLast := "record 3:", "record "+strconv.Itoa(last)+":"
	out := filepath.Join(dir, "out")

	cases := []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"abduct", "-log", tput, "-out", out}, 1, rec3},
		{[]string{"whatif", "-log", tput}, 1, rec3},
		// The Baseline sizes no capacity grid: a finite throughput,
		// however large, is a legal Baseline value.
		{[]string{"abduct", "-log", tput, "-baseline"}, 0, ""},
		{[]string{"abduct", "-log", start, "-out", out}, 1, rec3},
		{[]string{"abduct", "-log", start, "-baseline"}, 1, rec3},
		{[]string{"whatif", "-log", start}, 1, rec3},
		{[]string{"abduct", "-log", end, "-out", out}, 1, recLast},
		{[]string{"abduct", "-log", end, "-baseline"}, 1, recLast},
		{[]string{"whatif", "-log", end}, 1, recLast},
		{[]string{"abduct", "-log", cwnd, "-out", out}, 1, rec3},
		{[]string{"whatif", "-log", size}, 1, rec3},
		// Nor does it read the TCP state or the chunk sizes.
		{[]string{"abduct", "-log", cwnd, "-baseline"}, 0, ""},
		{[]string{"abduct", "-log", size, "-baseline"}, 0, ""},

		{[]string{"sessionrun", "-trace", testdata(t, "trace.txt"), "-rtt", "NaN"}, 1, "RTT NaN"},
		{[]string{"sessionrun", "-trace", testdata(t, "trace.txt"), "-rtt", "+Inf"}, 1, "RTT +Inf"},
		{[]string{"sessionrun", "-trace", testdata(t, "trace.txt"), "-buffer", "NaN"}, 1, "BufferCap NaN"},
	}
	for _, c := range cases {
		_, stderr, code := invoke(t, c.args...)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr)
		}
		if !strings.Contains(stderr, c.stderr) {
			t.Errorf("%v: stderr %q does not name %q", c.args, stderr, c.stderr)
		}
	}
}

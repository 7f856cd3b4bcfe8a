package cli

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"veritas"
)

// TestPrinterShowsWhyALeaseWasStolen pins that the steal line carries
// the dispatcher's reason, which fleetd's Sweep puts in Event.Err (the
// printer used to log the always-empty Event.Line).
func TestPrinterShowsWhyALeaseWasStolen(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	p := NewDispatchPrinter(log, 2, false)
	p.Handle(veritas.DispatchEvent{
		Type: veritas.DispatchSteal, Shard: 1, Agent: "agent-a", Epoch: 3,
		Err: errors.New("missed heartbeats"),
	})
	p.Handle(veritas.DispatchEvent{Type: veritas.DispatchRestart, Shard: 0, Attempt: 1})
	p.Handle(veritas.DispatchEvent{Type: veritas.DispatchFold, Done: 8})
	out := buf.String()
	for _, want := range []string{
		`msg="lease stolen" shard=1 agent=agent-a epoch=3 reason="missed heartbeats"`,
		`msg="folded shard stores" sessions=8 shards=2 restarts=1 steals=1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output lacks %q:\n%s", want, out)
		}
	}
}

package fleetd

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable table clock, so lease expiry tests never
// sleep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func completed(t *table) bool {
	select {
	case <-t.completeCh:
		return true
	default:
		return false
	}
}

func TestTableLeaseLifecycle(t *testing.T) {
	clock := newFakeClock()
	tab := newTable(2, time.Second, 0, clock.now)

	shard, epoch, ok := tab.acquire("a")
	if !ok || shard != 0 || epoch != 1 {
		t.Fatalf("first acquire = (%d, %d, %v), want (0, 1, true)", shard, epoch, ok)
	}
	shard2, epoch2, ok := tab.acquire("b")
	if !ok || shard2 != 1 || epoch2 != 1 {
		t.Fatalf("second acquire = (%d, %d, %v), want (1, 1, true)", shard2, epoch2, ok)
	}
	if _, _, ok := tab.acquire("c"); ok {
		t.Fatal("third acquire granted with nothing pending")
	}

	// Heartbeats within the TTL keep the lease alive across sweeps.
	clock.advance(800 * time.Millisecond)
	if err := tab.heartbeat(0, "a", 1); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	clock.advance(800 * time.Millisecond) // 1.6s absolute; shard 0 renewed at 0.8s
	if steals := tab.sweep(); len(steals) != 1 || steals[0].shard != 1 {
		t.Fatalf("sweep = %+v, want exactly shard 1 (never renewed)", steals)
	}

	if err := tab.complete(0, "a", 1); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if completed(tab) {
		t.Fatal("table complete with shard 1 still pending")
	}
	shard, epoch, ok = tab.acquire("a")
	if !ok || shard != 1 || epoch != 2 {
		t.Fatalf("re-acquire after steal = (%d, %d, %v), want (1, 2, true)", shard, epoch, ok)
	}
	if err := tab.complete(1, "a", 2); err != nil {
		t.Fatalf("complete stolen shard: %v", err)
	}
	if !completed(tab) || !tab.isComplete() {
		t.Fatal("table not complete after every shard finished")
	}
	if got := tab.stealCount(); got != 1 {
		t.Errorf("stealCount = %d, want 1", got)
	}
}

// TestTableEpochFencing pins the stale-agent fence: a heartbeat (or
// completion) arriving after the shard was re-leased carries the old
// epoch and must be rejected, so a presumed-dead agent coming back
// cannot corrupt a shard its successor now owns.
func TestTableEpochFencing(t *testing.T) {
	clock := newFakeClock()
	tab := newTable(1, time.Second, 0, clock.now)

	if _, epoch, ok := tab.acquire("ghost"); !ok || epoch != 1 {
		t.Fatalf("acquire epoch = %d, want 1", epoch)
	}
	clock.advance(2 * time.Second)
	if steals := tab.sweep(); len(steals) != 1 || steals[0].agent != "ghost" || steals[0].epoch != 1 {
		t.Fatalf("sweep = %+v, want ghost@1 revoked", steals)
	}
	shard, epoch, ok := tab.acquire("heir")
	if !ok || shard != 0 || epoch != 2 {
		t.Fatalf("re-lease = (%d, %d, %v), want (0, 2, true)", shard, epoch, ok)
	}

	// The ghost's stale epoch is fenced on every verb.
	if err := tab.heartbeat(0, "ghost", 1); !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale heartbeat: err = %v, want ErrStaleLease", err)
	}
	if err := tab.complete(0, "ghost", 1); !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale complete: err = %v, want ErrStaleLease", err)
	}
	if err := tab.release(0, "ghost", 1); !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale release: err = %v, want ErrStaleLease", err)
	}
	// So is the right agent with the wrong epoch, and vice versa.
	if err := tab.heartbeat(0, "heir", 1); !errors.Is(err, ErrStaleLease) {
		t.Errorf("heir with stale epoch: err = %v, want ErrStaleLease", err)
	}
	if err := tab.heartbeat(0, "ghost", 2); !errors.Is(err, ErrStaleLease) {
		t.Errorf("ghost with current epoch: err = %v, want ErrStaleLease", err)
	}
	// The heir's lease is untouched by all that fencing.
	if err := tab.heartbeat(0, "heir", 2); err != nil {
		t.Errorf("heir heartbeat: %v", err)
	}
	if err := tab.complete(0, "heir", 2); err != nil {
		t.Errorf("heir complete: %v", err)
	}
}

// TestTableDoneShardRejectsEverything pins the duplicate-upload fence:
// once a shard's store is accepted, any further lease verb on it —
// notably a second upload completing — answers ErrShardDone.
func TestTableDoneShardRejectsEverything(t *testing.T) {
	clock := newFakeClock()
	tab := newTable(1, time.Second, 0, clock.now)
	if _, _, ok := tab.acquire("a"); !ok {
		t.Fatal("acquire failed")
	}
	if err := tab.complete(0, "a", 1); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"duplicate complete": tab.complete(0, "a", 1),
		"heartbeat":          tab.heartbeat(0, "a", 1),
		"release":            tab.release(0, "a", 1),
	} {
		if !errors.Is(err, ErrShardDone) {
			t.Errorf("%s on a done shard: err = %v, want ErrShardDone", name, err)
		}
	}
	if _, _, ok := tab.acquire("b"); ok {
		t.Error("done shard re-leased")
	}
}

// TestTableSweepAfterCompleteIsNoop pins the expiry-during-fold edge:
// once every shard is done nothing is leased, so a sweep racing the
// fold (the Wait timer fires while store.Fold runs) revokes nothing
// and the completion state is untouched.
func TestTableSweepAfterCompleteIsNoop(t *testing.T) {
	clock := newFakeClock()
	tab := newTable(2, time.Second, 0, clock.now)
	for i := 0; i < 2; i++ {
		shard, epoch, ok := tab.acquire("a")
		if !ok {
			t.Fatal("acquire failed")
		}
		if err := tab.complete(shard, "a", epoch); err != nil {
			t.Fatal(err)
		}
	}
	if !tab.isComplete() {
		t.Fatal("table not complete")
	}
	clock.advance(time.Hour)
	if steals := tab.sweep(); len(steals) != 0 {
		t.Fatalf("sweep after completion stole %+v", steals)
	}
	if !tab.isComplete() || tab.stealCount() != 0 {
		t.Error("sweep after completion changed table state")
	}
}

// TestTableStragglerDeadline: heartbeats renew the TTL but never the
// hard MaxLease deadline, so a straggler is eventually stolen from no
// matter how diligently it heartbeats.
func TestTableStragglerDeadline(t *testing.T) {
	clock := newFakeClock()
	tab := newTable(1, time.Second, 3*time.Second, clock.now)
	if _, _, ok := tab.acquire("slow"); !ok {
		t.Fatal("acquire failed")
	}
	for i := 0; i < 4; i++ {
		clock.advance(700 * time.Millisecond) // up to 2.8s, inside the deadline
		if steals := tab.sweep(); len(steals) != 0 {
			t.Fatalf("stolen at %v despite live heartbeats: %+v", time.Duration(i+1)*700*time.Millisecond, steals)
		}
		if err := tab.heartbeat(0, "slow", 1); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	// 3.5s > the 3s deadline: the next sweep takes the shard even
	// though the last heartbeat was only 0.7s ago.
	clock.advance(700 * time.Millisecond)
	steals := tab.sweep()
	if len(steals) != 1 || !strings.Contains(steals[0].reason, "straggler") {
		t.Fatalf("sweep = %+v, want a straggler steal", steals)
	}
}

// TestTableGrantCapTurnsFatal: a shard that eats every lease it is
// granted eventually fails the campaign instead of looping forever.
func TestTableGrantCapTurnsFatal(t *testing.T) {
	clock := newFakeClock()
	tab := newTable(1, time.Second, 0, clock.now)
	for i := 0; i < DefaultMaxGrants; i++ {
		if _, _, ok := tab.acquire("crashy"); !ok {
			t.Fatalf("acquire %d refused", i)
		}
		if err := tab.release(0, "crashy", i+1); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	if _, _, ok := tab.acquire("crashy"); ok {
		t.Fatalf("grant %d exceeded the cap", DefaultMaxGrants+1)
	}
	err := tab.err()
	if err == nil || !strings.Contains(err.Error(), "lease budget") {
		t.Fatalf("table error = %v, want a lease-budget failure", err)
	}
	if !completed(tab) {
		t.Error("fatal table did not close the completion channel")
	}
	if tab.isComplete() {
		t.Error("fatal table claims completion")
	}
}

// TestTableReleaseRequeuesWithoutSteal: an agent handing a lease back
// is not a steal, and the shard is immediately grantable again.
func TestTableReleaseRequeuesWithoutSteal(t *testing.T) {
	clock := newFakeClock()
	tab := newTable(1, time.Second, 0, clock.now)
	if _, _, ok := tab.acquire("a"); !ok {
		t.Fatal("acquire failed")
	}
	if err := tab.release(0, "a", 1); err != nil {
		t.Fatal(err)
	}
	if got := tab.stealCount(); got != 0 {
		t.Errorf("release counted as steal (%d)", got)
	}
	shard, epoch, ok := tab.acquire("b")
	if !ok || shard != 0 || epoch != 2 {
		t.Fatalf("acquire after release = (%d, %d, %v), want (0, 2, true)", shard, epoch, ok)
	}
}

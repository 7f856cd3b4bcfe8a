// Package fleetd turns the local shard dispatcher into a multi-machine
// control plane: a Dispatcher that owns the campaign's shard partition
// and hands out TTL'd shard leases over HTTP, and an Agent that joins
// from any machine, runs leased shards with the exact same re-exec'd
// worker machinery a local dispatch uses, and ships its completed
// shard stores back.
//
// The protocol, in one lifecycle:
//
//	agent                                   dispatcher
//	  POST /v1/agents {name}          →       register, assign id
//	  POST /v1/lease {agent}          →       lease shard i (epoch e, TTL t)
//	  ...spawn worker (VERITAS_DISPATCH_WORKER spec from the lease)...
//	  POST /v1/heartbeat {i,e,done,   →       renew lease; relay progress,
//	       telemetry,traces}                  per-agent-labeled telemetry
//	                                          and traces into the fleet view
//	  POST /v1/upload?shard=i&epoch=e →       receive CRC-framed store,
//	       (shipped store stream)             verify shard.json + campaign
//	                                          fingerprint + every segment
//	                                          frame, then accept; shard done
//	  POST /v1/lease {agent}          →       next shard, or {done}
//
// Work stealing is lease expiry: an agent that stops heartbeating (it
// crashed, its machine died, its network partitioned) or a straggler
// that outlives the hard MaxLease deadline has its lease revoked and
// the shard returns to the pending queue for the next agent that asks.
// Lease epochs fence the ghosts: every grant increments the shard's
// epoch, and a heartbeat or upload carrying a stale epoch is rejected
// (409), so a presumed-dead agent that comes back cannot corrupt a
// shard another agent now owns. Because workers compute shards
// deterministically and resume from their stores, a stolen shard
// recomputed elsewhere produces a byte-identical shard store — the
// folded campaign report is the same no matter which agents ran what,
// or how many times leases moved.
//
// The dispatcher is built on a dispatch.Plane, the half it shares with
// a local dispatch: pre-flight, event fan-out, fold, and the GET
// surface. The event vocabulary is the local dispatcher's plus three
// fleet verbs — EventLease, EventSteal, EventUpload — so the plane's
// one Status view renders both: /v1/status shows shard rows with their
// lease holders plus live agent rows, /metrics carries
// per-agent-labeled worker telemetry next to the dispatcher's own
// gauges, and /v1/trace merges agent-stamped traces into the
// fleet-wide slowest-sessions view.
package fleetd

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

// Defaults for the lease policy.
const (
	// DefaultLeaseTTL is the heartbeat deadline: a lease not renewed
	// for this long is revoked and its shard re-leased.
	DefaultLeaseTTL = 10 * time.Second
	// DefaultMaxGrants caps how many times one shard may be leased
	// before the dispatcher declares the campaign failed — the
	// backstop against a shard that crashes every agent it lands on.
	DefaultMaxGrants = 5
)

// Lease errors, surfaced as HTTP 409/410 by the dispatcher.
var (
	// ErrStaleLease fences a ghost: the caller's (agent, epoch) no
	// longer holds the shard — the lease expired and was re-granted,
	// or never belonged to the caller.
	ErrStaleLease = errors.New("fleetd: stale lease")
	// ErrShardDone rejects work on a completed shard — notably a
	// duplicate store upload for a shard whose store was already
	// accepted.
	ErrShardDone = errors.New("fleetd: shard already complete")
)

// Wire types. Everything crossing the HTTP boundary is plain JSON.

// registerRequest / registerResponse: POST /v1/agents.
type registerRequest struct {
	Name string `json:"name,omitempty"`
}

type registerResponse struct {
	Agent       string `json:"agent"`
	Shards      int    `json:"shards"`
	LeaseTTLMs  int64  `json:"leaseTTLMs"`
	HeartbeatMs int64  `json:"heartbeatMs"`
}

// leaseRequest / leaseResponse: POST /v1/lease. Status is "lease"
// (Shard/Of/Epoch/TTLMs/Spec set), "wait" (nothing pending right now;
// retry after RetryMs — stealing happens when some lease expires), or
// "done" (the campaign is complete; the agent should exit).
type leaseRequest struct {
	Agent string `json:"agent"`
}

type leaseResponse struct {
	Status  string          `json:"status"`
	Shard   int             `json:"shard,omitempty"`
	Of      int             `json:"of,omitempty"`
	Epoch   int             `json:"epoch,omitempty"`
	TTLMs   int64           `json:"ttlMs,omitempty"`
	RetryMs int64           `json:"retryMs,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
}

// heartbeatRequest: POST /v1/heartbeat. Progress counts are the
// worker's rebased done/total; Snapshot and Traces are the cumulative
// observability the worker streamed up the NDJSON protocol, relayed
// verbatim (the dispatcher stamps agent provenance on arrival).
type heartbeatRequest struct {
	Agent    string              `json:"agent"`
	Shard    int                 `json:"shard"`
	Epoch    int                 `json:"epoch"`
	Done     int                 `json:"done"`
	Total    int                 `json:"total"`
	Snapshot *telemetry.Snapshot `json:"snapshot,omitempty"`
	Traces   []tracing.Trace     `json:"traces,omitempty"`
}

// releaseRequest: POST /v1/release — an agent returning a lease it
// cannot finish (its local restart budget is exhausted), so the shard
// re-queues immediately instead of waiting out the TTL.
type releaseRequest struct {
	Agent string `json:"agent"`
	Shard int    `json:"shard"`
	Epoch int    `json:"epoch"`
	Error string `json:"error,omitempty"`
}

// errorResponse carries an error across the wire.
type errorResponse struct {
	Error string `json:"error"`
}

// uploadResponse: POST /v1/upload acceptance.
type uploadResponse struct {
	Sessions int `json:"sessions"`
}

// leaseState tracks one shard through the table.
type leaseState int

const (
	statePending leaseState = iota
	stateLeased
	stateDone
)

// lease is one shard's slot in the table.
type lease struct {
	state leaseState
	// agent/epoch identify the current holder (stateLeased) or the
	// last one (after expiry/steal). Epoch increments on every grant
	// and never resets — the fencing token.
	agent string
	epoch int
	// expires is the heartbeat deadline; deadline is the optional hard
	// straggler bound set at grant time (zero when MaxLease is off).
	expires  time.Time
	deadline time.Time
	// grants counts how many times this shard was leased; steals how
	// many of those leases were revoked.
	grants int
	steals int
}

// steal records one revocation, for event emission.
type steal struct {
	shard  int
	agent  string
	epoch  int
	reason string
}

// table is the lease table: the dispatcher's single source of truth
// for who owns which shard. All methods are safe for concurrent use.
type table struct {
	mu       sync.Mutex
	now      func() time.Time
	ttl      time.Duration
	maxLease time.Duration // zero: no straggler deadline
	leases   []lease
	done     int
	fatal    error
	// completeCh closes exactly once, when every shard is done or the
	// table turns fatal.
	completeCh chan struct{}
	steals     int
}

func newTable(shards int, ttl, maxLease time.Duration, now func() time.Time) *table {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if now == nil {
		now = time.Now
	}
	return &table{
		now:        now,
		ttl:        ttl,
		maxLease:   maxLease,
		leases:     make([]lease, shards),
		completeCh: make(chan struct{}),
	}
}

// acquire leases the lowest-indexed pending shard to agent. ok is
// false when nothing is pending (everything leased or done — the
// caller answers "wait" or "done"). Exceeding the per-shard grant cap
// turns the table fatal.
func (t *table) acquire(agent string) (shard, epoch int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fatal != nil {
		return 0, 0, false
	}
	for i := range t.leases {
		l := &t.leases[i]
		if l.state != statePending {
			continue
		}
		if l.grants >= DefaultMaxGrants {
			t.failLocked(fmt.Errorf("fleetd: shard %d exhausted its lease budget (%d grants); campaign failed", i, l.grants))
			return 0, 0, false
		}
		l.state = stateLeased
		l.agent = agent
		l.epoch++
		l.grants++
		now := t.now()
		l.expires = now.Add(t.ttl)
		if t.maxLease > 0 {
			l.deadline = now.Add(t.maxLease)
		} else {
			l.deadline = time.Time{}
		}
		return i, l.epoch, true
	}
	return 0, 0, false
}

// check validates that (agent, epoch) currently holds shard, mapping
// the failure modes onto the two fencing errors.
func (t *table) checkLocked(shard int, agent string, epoch int) (*lease, error) {
	if shard < 0 || shard >= len(t.leases) {
		return nil, fmt.Errorf("fleetd: shard %d out of range", shard)
	}
	l := &t.leases[shard]
	if l.state == stateDone {
		return nil, ErrShardDone
	}
	if l.state != stateLeased || l.agent != agent || l.epoch != epoch {
		return nil, fmt.Errorf("%w: shard %d epoch %d is not held by %s@%d", ErrStaleLease, shard, l.epoch, agent, epoch)
	}
	return l, nil
}

// heartbeat renews the lease's TTL. The straggler deadline, when set,
// is not extended — that is the point of a hard deadline.
func (t *table) heartbeat(shard int, agent string, epoch int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.checkLocked(shard, agent, epoch)
	if err != nil {
		return err
	}
	l.expires = t.now().Add(t.ttl)
	return nil
}

// complete marks the shard done on behalf of its current holder. The
// caller performs upload verification *before* complete; a lease that
// expired during that verification fails here, and the already
// verified store is discarded — fencing beats salvage, because the
// shard's re-lease may already be computing into the accepted slot.
func (t *table) complete(shard int, agent string, epoch int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.checkLocked(shard, agent, epoch)
	if err != nil {
		return err
	}
	l.state = stateDone
	t.done++
	if t.done == len(t.leases) {
		t.closeCompleteLocked()
	}
	return nil
}

// markDone pre-completes a shard outside any lease: a verified shard
// store already on disk when the dispatcher starts (a previous
// interrupted fleet run left it).
func (t *table) markDone(shard int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &t.leases[shard]
	if l.state == stateDone {
		return
	}
	l.state = stateDone
	t.done++
	if t.done == len(t.leases) {
		t.closeCompleteLocked()
	}
}

// release returns a leased shard to the pending queue at the holder's
// request (worker failed locally). Not counted as a steal.
func (t *table) release(shard int, agent string, epoch int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.checkLocked(shard, agent, epoch)
	if err != nil {
		return err
	}
	l.state = statePending
	return nil
}

// sweep revokes expired leases — missed heartbeats, or stragglers past
// the hard deadline — returning their shards to the pending queue.
// Once the table is complete there is nothing leased, so a sweep
// racing the fold is a no-op by construction.
func (t *table) sweep() []steal {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var out []steal
	for i := range t.leases {
		l := &t.leases[i]
		if l.state != stateLeased {
			continue
		}
		reason := ""
		switch {
		case now.After(l.expires):
			reason = fmt.Sprintf("missed heartbeats (lease TTL %v)", t.ttl)
		case !l.deadline.IsZero() && now.After(l.deadline):
			reason = fmt.Sprintf("straggler exceeded the hard lease deadline (%v)", t.maxLease)
		default:
			continue
		}
		l.state = statePending
		l.steals++
		t.steals++
		out = append(out, steal{shard: i, agent: l.agent, epoch: l.epoch, reason: reason})
	}
	return out
}

// fail turns the table fatal: complete closes, Wait returns the error.
func (t *table) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(err)
}

func (t *table) failLocked(err error) {
	if t.fatal == nil {
		t.fatal = err
		t.closeCompleteLocked()
	}
}

func (t *table) closeCompleteLocked() {
	select {
	case <-t.completeCh:
	default:
		close(t.completeCh)
	}
}

// complete reports the completion channel (closed when all shards are
// done or the table turned fatal) and err the fatal error, if any.
func (t *table) err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fatal
}

func (t *table) isComplete() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fatal == nil && t.done == len(t.leases)
}

// holderOf reports the shards agent currently holds.
func (t *table) holderOf(agent string) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for i := range t.leases {
		if t.leases[i].state == stateLeased && t.leases[i].agent == agent {
			out = append(out, i)
		}
	}
	return out
}

// stealCount reports total revocations so far.
func (t *table) stealCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.steals
}

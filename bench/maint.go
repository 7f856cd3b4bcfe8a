package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"veritas"
	"veritas/internal/store"
)

// corpus-maint: the store as a storage engine — what `fleet -fold`, a
// veritasd upload and a serve restart pay. No causal inference runs in
// the timed phase; JSON row encode/decode and CRC framing do.

const maintShards = 4

// maintStages is how many times the pass moves every row: append,
// ship, receive, verify, fold, prime (first partials build + snapshot),
// reopen from sidecars + snapshot, reopen by scan + rebuild, full scan.
const maintStages = 9

// shardOf spreads rows over the shards the way a sharded campaign
// does: by corpus index, after the scenario interleave.
func shardOf(g int) int { return (g / len(scenarios)) % maintShards }

// storeReport returns the store's aggregate report as JSON, through
// its partial aggregates (restored or rebuilt on first use).
func storeReport(st *store.Store) ([]byte, error) {
	p, err := st.Partials()
	if err != nil {
		return nil, err
	}
	return json.Marshal(p.Report(""))
}

// maintPass pushes rows through the whole maintenance pipeline under
// dir and returns the folded store's report and the latencies of the
// random point reads. Every stage is a span.
func maintPass(r *run, parent *span, rows []veritas.FleetRow, dir string) (report []byte, getMs []float64, err error) {
	stage := func(layer, name string, fn func() error) error {
		sp := r.rec.begin(parent, layer, name)
		defer sp.finish()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	shardDir := func(kind string, i int) string { return filepath.Join(dir, fmt.Sprintf("%s-%d", kind, i)) }
	folded := filepath.Join(dir, "folded")
	shipped := make([]bytes.Buffer, maintShards)
	var received []string

	err = stage("store", "Append+Sync into shards", func() error {
		shards := make([]*store.Store, maintShards)
		for i := range shards {
			st, err := store.Create(shardDir("shard", i), store.Options{})
			if err != nil {
				return err
			}
			defer st.Close()
			if err := store.WriteShardMeta(st.Dir(), store.ShardMeta{Index: i, Count: maintShards}); err != nil {
				return err
			}
			shards[i] = st
		}
		counts := make([]int, maintShards)
		for g, row := range rows {
			i := shardOf(g)
			if err := shards[i].Append(row); err != nil {
				return err
			}
			if counts[i]++; counts[i]%32 == 0 {
				if err := shards[i].Sync(); err != nil {
					return err
				}
			}
		}
		for _, st := range shards {
			if err := st.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	err = stage("store", "Ship", func() error {
		for i := range shipped {
			if _, err := store.Ship(&shipped[i], shardDir("shard", i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	err = stage("store", "Receive", func() error {
		for i := range shipped {
			r.info["shipped_bytes"] += float64(shipped[i].Len())
			if _, err := store.Receive(&shipped[i], shardDir("recv", i)); err != nil {
				return err
			}
			received = append(received, shardDir("recv", i))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	err = stage("store", "VerifyShard", func() error {
		total := 0
		for i, d := range received {
			n, err := store.VerifyShard(d, i, maintShards, nil)
			if err != nil {
				return err
			}
			total += n
		}
		if total != len(rows) {
			return fmt.Errorf("verified %d rows, want %d", total, len(rows))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	err = stage("store", "Fold", func() error {
		n, err := store.Fold(folded, store.Options{}, received...)
		if err == nil && n != len(rows) {
			err = fmt.Errorf("folded %d rows, want %d", n, len(rows))
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	// What the first server over the folded corpus pays: build the
	// partial aggregates from the rows, then snapshot them on close.
	err = stage("store", "Open+Partials+Close (prime snapshot)", func() error {
		st, err := store.Open(folded, store.Options{})
		if err != nil {
			return err
		}
		defer st.Close()
		if _, err := st.Partials(); err != nil {
			return err
		}
		return st.Close()
	})
	if err != nil {
		return nil, nil, err
	}
	reopen := func(name string) error {
		return stage("store", name, func() error {
			st, err := store.Open(folded, store.Options{ReadOnly: true})
			if err != nil {
				return err
			}
			defer st.Close()
			r.attempted++
			if got := len(st.Keys()); got != len(rows) {
				r.fail("%s: %d keys, want %d", name, got, len(rows))
			}
			report, err = storeReport(st)
			return err
		})
	}
	if err := reopen("Open from sidecars + partials snapshot"); err != nil {
		return nil, nil, err
	}
	snapshotReport := report
	drop, _ := filepath.Glob(filepath.Join(folded, "*.vidx"))
	for _, f := range append(drop, filepath.Join(folded, "partials.vagg")) {
		if err := os.Remove(f); err != nil {
			return nil, nil, err
		}
	}
	if err := reopen("Open by frame scan + partials rebuild"); err != nil {
		return nil, nil, err
	}
	r.attempted++
	if !bytes.Equal(report, snapshotReport) {
		r.fail("report after snapshot restore differs from report after rebuild")
	}

	st, err := store.Open(folded, store.Options{ReadOnly: true})
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	err = stage("store", "Scan", func() error {
		n := 0
		if err := st.Scan(func(veritas.FleetRow) error { n++; return nil }); err != nil {
			return err
		}
		if n != len(rows) {
			return fmt.Errorf("scanned %d rows, want %d", n, len(rows))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// The scan's garbage is not the point reads' cost.
	runtime.GC()
	err = stage("store", "random Get", func() error {
		rng := rand.New(rand.NewSource(r.seed ^ 0x6e7))
		getMs = make([]float64, 0, r.sz.maintGets)
		for i := 0; i < r.sz.maintGets; i++ {
			id := rows[rng.Intn(len(rows))].ID
			t0 := time.Now()
			_, ok, err := st.Get(id)
			getMs = append(getMs, ms(time.Since(t0)))
			if err != nil {
				return err
			}
			r.attempted++
			if !ok {
				r.fail("Get(%s): not found", id)
			}
		}
		return nil
	})
	return report, getMs, err
}

func runCorpusMaint(r *run) error {
	var rows []veritas.FleetRow
	for i := 0; i < r.sz.setups; i++ {
		t0 := time.Now()
		sp := r.rec.begin(r.root, "bench", "generate rows")
		base, err := realRows(r.seed, r.sz.seedSessions, r.sz.seedChunks, r.workers)
		if err != nil {
			return err
		}
		rows = synthRows(base, r.sz.maintRows, r.seed)
		sp.finish()
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	var report []byte
	for i := 0; i == 0 || r.wall < r.budget.Seconds(); i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("maint-%d", i))
		parent := r.rec.begin(r.root, "bench", fmt.Sprintf("pass %d", i))
		t0 := time.Now()
		rep, getMs, err := maintPass(r, parent, rows, dir)
		wall := time.Since(t0).Seconds()
		parent.finish()
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		work := float64(len(rows)*maintStages + len(getMs))
		r.wall += wall
		r.ops += work
		r.rates = append(r.rates, work/wall)
		r.attempted += len(rows) * maintStages
		r.lat["get"] = append(r.lat["get"], getMs...)
		r.attempted++
		if report != nil && !bytes.Equal(rep, report) {
			r.fail("pass %d folded report differs from pass 0", i)
		}
		report = rep
	}
	// The folded report must equal that of one store fed the same rows.
	single := filepath.Join(r.dir, "single.store")
	if err := buildStore(single, rows, 32); err != nil {
		return err
	}
	st, err := store.Open(single, store.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	defer st.Close()
	want, err := storeReport(st)
	if err != nil {
		return err
	}
	r.attempted++
	if !bytes.Equal(report, want) {
		r.fail("folded report (%d bytes) differs from one store fed the same %d rows (%d bytes)", len(report), len(rows), len(want))
	}
	return r.checkReport(report, rows)
}

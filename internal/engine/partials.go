package engine

import (
	"encoding/binary"
	"sort"
	"strings"
	"sync"

	"veritas/internal/abduction"
)

// Incremental per-arm aggregation — the one reducer behind every
// report (engine.Run, the store, the /v1 report family, Fold). The
// fleet report's reducer is associative: every cell is a fold over
// per-session values that are pure functions of one SessionRow (the
// estimator values, the coverage range test, the prediction list).
// Partials exploits that by extracting those values once, when a row
// is folded in, and keeping them as a per-session digest — so a growing
// corpus pays O(arms × metrics) extraction per appended row instead of
// a full O(rows) rescan per report.
//
// A digest is one flat []float64 slab: per arm, in row order, the
// baseline, Veritas-low, Veritas-high and truth cells of every report
// metric, then the session's interventional predictions. What the slab
// does not say — the scenario, the arm names, which arms carried the
// truth — is the session's layout, interned once per Partials and
// shared by every session of that shape.
//
// Byte-identity discipline. Reports built from partials must be
// byte-identical to the Aggregator oracle's report over the same rows
// (the repo's central invariant, pinned by tests at every layer). Two
// properties make that hold:
//
//   - Extraction is pure per row: the metric functions and VeritasRange
//     computed at fold time equal the same calls at report time.
//   - Series order is fixed: stats.Mean sums in input order, so Report
//     materializes every series in (Index, ID) session order with
//     per-session arm multiplicity preserved.
//
// EstVeritasMid is not stored: it is (low+high)/2, derived from the
// stored low/high cells with that exact float expression.
//
// Digests are immutable once folded: a re-fold of an ID swaps in a new
// digest, so reports and series read the digests of a view outside the
// lock while folds continue.

// PartialSession is one session's digest on the wire: the element type
// of the store's partials snapshot, which the store writes and no
// longer reads. EachPartial converts slabs to it; nothing else uses
// it. It goes with the snapshot writer (see internal/store/partials.go).
type PartialSession struct {
	// Seq orders folds of the same session ID: FoldRow ignores a row
	// whose Seq is below the recorded one, so replaying a store's
	// frames in any interleaving converges on the newest record.
	Seq         uint64
	Index       int
	ID          string
	Scenario    string
	Arms        []PartialArm
	Predictions []float64
}

// PartialArm is one arm's extracted cells on the wire: per report
// metric, the value under each base estimator. Truth is present only
// when the outcome carried the oracle.
type PartialArm struct {
	Name     string
	HasTruth bool
	Truth    []float64 `json:",omitempty"` // per reportMetrics index
	Baseline []float64
	Low      []float64
	High     []float64
}

// The cells of one arm in a digest's slab: cellKinds blocks of one cell
// per report metric.
const (
	cellBaseline = iota
	cellLow
	cellHigh
	cellTruth
	cellKinds

	numMetrics = len(reportMetrics)
	armStride  = cellKinds * numMetrics
)

// layout is one interned session shape: the scenario, the arm names in
// row order (duplicates kept) and which arms carried the truth. Every
// field but live is immutable, so readers use a layout outside the
// lock.
type layout struct {
	key      string // the interning key, which the strings below alias
	scenario string
	arms     []string
	truth    []bool
	live     int // digests holding this layout; guarded by Partials.mu
}

// appendKeyHead and appendKeyArm build a layout's interning key: the
// length-prefixed scenario and arm count, then each arm's
// length-prefixed name and truth flag. Length prefixes make it
// injective whatever bytes the labels hold.
func appendKeyHead(b []byte, scenario string, arms int) []byte {
	b = binary.AppendUvarint(b, uint64(len(scenario)))
	b = append(b, scenario...)
	return binary.AppendUvarint(b, uint64(arms))
}

func appendKeyArm(b []byte, name string, truth bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	if truth {
		return append(b, 1)
	}
	return append(b, 0)
}

// parseLayout decodes a key appendKeyHead/appendKeyArm built.
func parseLayout(key string) *layout {
	pos := 0
	uvarint := func() int {
		var v uint64
		for shift := 0; ; shift += 7 {
			b := key[pos]
			pos++
			v |= uint64(b&0x7f) << shift
			if b < 0x80 {
				return int(v)
			}
		}
	}
	str := func() string {
		n := uvarint()
		pos += n
		return key[pos-n : pos]
	}
	l := &layout{key: key, scenario: str()}
	n := uvarint()
	l.arms, l.truth = make([]string, n), make([]bool, n)
	for i := range l.arms {
		l.arms[i] = str()
		l.truth[i] = key[pos] == 1
		pos++
	}
	return l
}

// digest is one session's folded state. Every field but pos is
// immutable once the digest is folded in.
type digest struct {
	seq    uint64
	index  int
	id     string
	layout *layout
	slab   []float64
	pos    int // index in Partials.ordered; guarded by Partials.mu
}

// value returns arm i's cell under est; m indexes reportMetrics.
func (d *digest) value(i int, est ArmEstimator, m int) (float64, bool) {
	cells := d.slab[i*armStride:]
	switch est {
	case EstTruth:
		if !d.layout.truth[i] {
			return 0, false
		}
		return cells[cellTruth*numMetrics+m], true
	case EstBaseline:
		return cells[cellBaseline*numMetrics+m], true
	case EstVeritasLow:
		return cells[cellLow*numMetrics+m], true
	case EstVeritasHigh:
		return cells[cellHigh*numMetrics+m], true
	case EstVeritasMid:
		return (cells[cellLow*numMetrics+m] + cells[cellHigh*numMetrics+m]) / 2, true
	}
	return 0, false
}

// predictions returns the slab's tail past the arm cells.
func (d *digest) predictions() []float64 {
	return d.slab[len(d.layout.arms)*armStride:]
}

// Partials holds the incremental aggregate state of a corpus: one
// digest per session ID, newest fold wins. All methods are safe for
// concurrent use.
type Partials struct {
	mu       sync.Mutex
	sessions map[string]*digest
	ordered  []*digest // every digest, sorted by (Index, ID) when sorted
	sorted   bool
	layouts  map[string][]*layout // by scenario, live or not; made with the first
}

// NewPartials returns an empty partial-aggregate state.
func NewPartials() *Partials {
	return &Partials{sessions: make(map[string]*digest), sorted: true}
}

// FoldRow reduces one row straight into a slab and folds it in,
// replacing any digest already held for the same ID unless that digest
// carries a higher Seq (a concurrent fold of a newer record won the
// race). Reports whether the fold was applied. The reduction is the
// only place rows are reduced, so fold-time and rebuild-time digests
// cannot diverge.
func (p *Partials) FoldRow(row SessionRow, seq uint64) bool {
	slab := make([]float64, len(row.Arms)*armStride+len(row.Predictions))
	var kb [128]byte
	key := appendKeyHead(kb[:0], row.Scenario, len(row.Arms))
	for i := range row.Arms {
		oc := &row.Arms[i]
		cells := slab[i*armStride:]
		for m, met := range reportMetrics {
			cells[cellBaseline*numMetrics+m] = met.fn(oc.Baseline)
			if oc.HasTruth {
				cells[cellTruth*numMetrics+m] = met.fn(oc.Truth)
			}
			cells[cellLow*numMetrics+m], cells[cellHigh*numMetrics+m] = abduction.VeritasRange(oc.Samples, met.fn)
		}
		key = appendKeyArm(key, oc.Name, oc.HasTruth)
	}
	copy(slab[len(row.Arms)*armStride:], row.Predictions)
	return p.fold(&digest{seq: seq, index: row.Index, id: row.ID, slab: slab}, row.Scenario, key)
}

// Merge folds every digest src holds into p as of sequence seq: each
// lands unless p holds its ID at a higher Seq, FoldRow's rule. The
// live tier merges shard i as of i, so a later shard's record wins, as
// in a fold. Digests are immutable, so the slabs are shared, not
// copied.
func (p *Partials) Merge(src *Partials, seq uint64) {
	digests := src.view("")
	p.mu.Lock()
	defer p.mu.Unlock()
	interned := make(map[*layout]*layout) // src's layout -> p's
	for _, d := range digests {
		l, ok := interned[d.layout]
		if !ok {
			l = p.internLocked(d.layout.scenario, []byte(d.layout.key))
			interned[d.layout] = l
		}
		p.foldLocked(&digest{seq: seq, index: d.index, id: d.id, slab: d.slab}, l)
	}
}

func (p *Partials) fold(d *digest, scenario string, key []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.foldLocked(d, p.internLocked(scenario, key))
}

// internLocked returns p's layout for key, adding it on first sight. A
// scenario holds a handful of layouts, so they are found by a scan.
// Caller holds mu.
func (p *Partials) internLocked(scenario string, key []byte) *layout {
	for _, l := range p.layouts[scenario] {
		if l.key == string(key) {
			return l
		}
	}
	if p.layouts == nil {
		p.layouts = make(map[string][]*layout)
	}
	l := parseLayout(string(key))
	p.layouts[l.scenario] = append(p.layouts[l.scenario], l)
	return l
}

// foldLocked installs d with layout l unless the digest held for the
// ID carries a higher Seq. A digest already held is swapped out, never
// written: a report may be reading it. Caller holds mu.
func (p *Partials) foldLocked(d *digest, l *layout) bool {
	cur, ok := p.sessions[d.id]
	if ok && d.seq < cur.seq {
		return false
	}
	d.layout = l
	l.live++
	if ok {
		cur.layout.live--
		if cur.index != d.index {
			p.sorted = false
		}
		d.pos = cur.pos
		p.ordered[d.pos] = d
	} else {
		d.pos = len(p.ordered)
		p.ordered = append(p.ordered, d)
		p.sorted = false
	}
	p.sessions[d.id] = d
	return true
}

// Sessions returns the number of distinct sessions folded in.
func (p *Partials) Sessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

// view returns the digests in (Index, ID) order, optionally filtered to
// one scenario. The returned slice is the caller's; the digests are
// immutable and shared.
func (p *Partials) view(scenario string) []*digest {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.sorted {
		sort.Slice(p.ordered, func(i, j int) bool {
			if p.ordered[i].index != p.ordered[j].index {
				return p.ordered[i].index < p.ordered[j].index
			}
			return p.ordered[i].id < p.ordered[j].id
		})
		for i, d := range p.ordered {
			d.pos = i
		}
		p.sorted = true
	}
	if scenario == "" {
		return append([]*digest(nil), p.ordered...)
	}
	n := 0
	for _, l := range p.layouts[scenario] {
		n += l.live
	}
	out := make([]*digest, 0, n)
	for _, d := range p.ordered {
		if d.layout.scenario == scenario {
			out = append(out, d)
		}
	}
	return out
}

// EachPartial calls fn with every digest in (Index, ID) order, in its
// wire form — the store's snapshot writer, which encodes one digest at
// a time. ps is reused from call to call and its cells alias the digest:
// fn must neither keep nor modify it. The first error fn returns stops
// the walk and is returned.
func (p *Partials) EachPartial(fn func(ps *PartialSession) error) error {
	var ps PartialSession
	var arms []PartialArm
	for _, d := range p.view("") {
		l := d.layout
		arms = arms[:0]
		for i, name := range l.arms {
			cells := d.slab[i*armStride : (i+1)*armStride : (i+1)*armStride]
			block := func(kind int) []float64 {
				return cells[kind*numMetrics : (kind+1)*numMetrics : (kind+1)*numMetrics]
			}
			a := PartialArm{Name: name, HasTruth: l.truth[i], Baseline: block(cellBaseline), Low: block(cellLow), High: block(cellHigh)}
			if a.HasTruth {
				a.Truth = block(cellTruth)
			}
			arms = append(arms, a)
		}
		ps = PartialSession{Seq: d.seq, Index: d.index, ID: d.id, Scenario: l.scenario}
		if len(arms) > 0 {
			ps.Arms = arms // a digest without arms has nil Arms, as it was reduced
		}
		if preds := d.predictions(); len(preds) > 0 {
			ps.Predictions = preds
		}
		if err := fn(&ps); err != nil {
			return err
		}
	}
	return nil
}

// HasScenario reports whether any folded session carries the scenario.
func (p *Partials) HasScenario(scenario string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.layouts[scenario] {
		if l.live > 0 {
			return true
		}
	}
	return false
}

// ArmUnion returns the sorted union of arm names across the (scenario-
// filtered) sessions — the validation set for arm and ABR query
// filters. Unlike the report's arm list (first session's order) it sees
// arms any session ran. It reads the layouts, not the sessions.
func (p *Partials) ArmUnion(scenario string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := make(map[string]bool)
	add := func(ls []*layout) {
		for _, l := range ls {
			if l.live > 0 {
				for _, name := range l.arms {
					seen[name] = true
				}
			}
		}
	}
	if scenario != "" {
		add(p.layouts[scenario])
	} else {
		for _, ls := range p.layouts {
			add(ls)
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// firstArms returns the arm names of the first session (in view order)
// that ran any arms. The slice is a layout's: read it, do not keep it.
func firstArms(rows []*digest) []string {
	for _, d := range rows {
		if len(d.layout.arms) > 0 {
			return d.layout.arms
		}
	}
	return nil
}

// appendSeries appends the per-session values for one arm under one
// estimator to buf, in view order, with per-session arm multiplicity
// preserved. Sessions missing the arm (or the truth, for EstTruth) are
// skipped.
func appendSeries(buf []float64, rows []*digest, arm string, est ArmEstimator, m int) []float64 {
	for _, d := range rows {
		for i, name := range d.layout.arms {
			if name != arm {
				continue
			}
			if v, ok := d.value(i, est, m); ok {
				buf = append(buf, v)
			}
		}
	}
	return buf
}

// coverage returns the fraction of sessions whose truth lies inside
// [low − slack, high + slack] for metric m.
func coverage(rows []*digest, arm string, m int, slack float64) float64 {
	var n, covered int
	for _, d := range rows {
		l := d.layout
		for i, name := range l.arms {
			if name != arm || !l.truth[i] {
				continue
			}
			cells := d.slab[i*armStride:]
			n++
			if t := cells[cellTruth*numMetrics+m]; t >= cells[cellLow*numMetrics+m]-slack && t <= cells[cellHigh*numMetrics+m]+slack {
				covered++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(covered) / float64(n)
}

// Report builds the aggregate report from the partials — byte-identical
// (after JSON encoding) to the Aggregator oracle's over the same rows.
// scenario empty means all sessions.
func (p *Partials) Report(scenario string) *Report {
	return p.ReportFiltered(scenario, nil)
}

// ReportFiltered is Report restricted to the arms armOK accepts (nil
// accepts all) — the /v1/report?abr= filter. The unfiltered report is
// the byte-identity-pinned one; a filtered report is the same blocks
// minus the excluded arms. Every series is filled into one reused
// scratch buffer and summarised in place.
func (p *Partials) ReportFiltered(scenario string, armOK func(string) bool) *Report {
	rows := p.view(scenario)
	rep := &Report{Sessions: len(rows)}
	buf := make([]float64, 0, len(rows))
	for _, arm := range firstArms(rows) {
		if armOK != nil && !armOK(arm) {
			continue
		}
		ar := ArmAggregate{Arm: arm}
		for m, met := range reportMetrics {
			ma := MetricAggregate{Metric: met.label, Estimators: map[ArmEstimator]Summary{}}
			for _, est := range reportEstimators {
				if buf = appendSeries(buf[:0], rows, arm, est, m); len(buf) > 0 {
					ma.Estimators[est] = summarizeInPlace(buf)
				}
			}
			if _, ok := ma.Estimators[EstTruth]; ok {
				c := coverage(rows, arm, m, met.slack)
				ma.Coverage = &c
				ma.CoverageSlack = met.slack
			}
			ar.Metrics = append(ar.Metrics, ma)
		}
		rep.Arms = append(rep.Arms, ar)
	}
	buf = buf[:0]
	for _, d := range rows {
		buf = append(buf, d.predictions()...)
	}
	if len(buf) > 0 {
		s := summarizeInPlace(buf)
		rep.Predictions = &s
	}
	return rep
}

// Series returns the per-session values of one report metric under the
// given estimator for one arm, in corpus order — what the CDF, series
// and percentile endpoints serve. m indexes ReportMetrics. The slice is
// the caller's (nil when empty).
func (p *Partials) Series(scenario, arm string, est ArmEstimator, m int) []float64 {
	if m < 0 || m >= numMetrics {
		return nil
	}
	rows := p.view(scenario)
	n := 0
	for _, d := range rows {
		for _, name := range d.layout.arms {
			if name == arm {
				n++
			}
		}
	}
	if out := appendSeries(make([]float64, 0, n), rows, arm, est, m); len(out) > 0 {
		return out
	}
	return nil // an empty series is nil, which JSON bodies show as null
}

// ReportMetric describes one metric column of the fleet report.
type ReportMetric struct {
	Key   string  // query-surface spelling ("ssim", "rebuf", "bitrate")
	Label string  // report row label ("SSIM", "rebuf %", "bitrate Mbps")
	Scale float64 // display multiplier
	Slack float64 // coverage slack in the metric's native unit
}

// ReportMetrics lists the report's metric columns in report order; the
// slice index is the m parameter of Series.
func ReportMetrics() []ReportMetric {
	out := make([]ReportMetric, len(reportMetrics))
	for i, m := range reportMetrics {
		out[i] = ReportMetric{Key: m.key, Label: m.label, Scale: m.scale, Slack: m.slack}
	}
	return out
}

// MetricIndex resolves a metric spelling — the query key
// (case-insensitive) or the exact report label — to its reportMetrics
// index.
func MetricIndex(name string) (int, bool) {
	for i, m := range reportMetrics {
		if strings.EqualFold(name, m.key) || name == m.label {
			return i, true
		}
	}
	return 0, false
}

// Estimators lists every arm estimator the query surface accepts.
func Estimators() []ArmEstimator {
	return []ArmEstimator{EstTruth, EstBaseline, EstVeritasLow, EstVeritasHigh, EstVeritasMid}
}

// ParseEstimator resolves an estimator spelling.
func ParseEstimator(name string) (ArmEstimator, bool) {
	for _, est := range Estimators() {
		if ArmEstimator(name) == est {
			return est, true
		}
	}
	return "", false
}

// Package mathx provides the small dense-matrix and numerical routines
// that the Veritas EHMM needs: row-stochastic matrices and their forward
// step (VecMulInto, over a Band), cached matrix powers (one bounded
// prefix A^0 … A^(PowerPrefix−1) per matrix, walked by that step and
// shared process-wide under a key the caller chooses, so a matrix is
// built once per key: SharedPowers), log-domain helpers and Gaussian
// densities — and the module's one seeded random source, NewRand.
//
// All matrices are dense, row-major float64. A matrix's support is
// recorded separately as a Band: the EHMM's tridiagonal prior makes
// every power A^k banded with half-width k, and a grid sized by a fast
// link has hundreds of states, so inference loops and the power walk run
// over the band rather than the whole row — skipping only terms that are
// exact zeros, which keeps every sum, maximum and argmax bit-identical
// to the dense loop.
package mathx

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mathx: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("mathx: FromRows needs at least one non-empty row")
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("mathx: ragged rows: row %d has %d cols, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulInto computes m × b into dst, which must be m.Rows × b.Cols and must
// not alias m or b.
func (m *Matrix) MulInto(dst, b *Matrix) {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mathx: dimension mismatch %dx%d × %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != m.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mathx: MulInto dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, b.Cols))
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		mrow := m.Row(i)
		orow := dst.Row(i)
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
}

// MulVecInto computes m × v into dst (length m.Rows), which must not
// alias v.
func (m *Matrix) MulVecInto(dst, v []float64) {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("mathx: dimension mismatch %dx%d × vec(%d)", m.Rows, m.Cols, len(v)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: MulVecInto dst length %d, want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
}

// VecMulInto computes vᵀ × m into dst (length m.Cols), which must not
// alias v: dst[j] = Σ_i v[i]·m[i][j], with rows where v is zero skipped
// and j over row i's range in band, m's Band. It is the forward step of
// a row-stochastic chain, and the power cache's walk steps each row of
// A^k through it. The terms it skips are exact zeros, each of which
// would add ±0 to a sum that starts at +0, so for finite v the result
// is the dense product's bit for bit.
func (m *Matrix) VecMulInto(dst, v []float64, band Band) {
	if m.Rows != len(v) {
		panic(fmt.Sprintf("mathx: dimension mismatch vec(%d) × %dx%d", len(v), m.Rows, m.Cols))
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("mathx: VecMulInto dst length %d, want %d", len(dst), m.Cols))
	}
	clear(dst)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m.Row(i)
		for j := band.RowLo[i]; j < band.RowHi[i]; j++ {
			dst[j] += vi * row[j]
		}
	}
}

// NormalizeRows scales each row to sum to 1. Rows that sum to zero become
// uniform distributions.
func (m *Matrix) NormalizeRows() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for _, v := range row {
			s += v
		}
		if s == 0 {
			u := 1 / float64(len(row))
			for j := range row {
				row[j] = u
			}
			continue
		}
		for j := range row {
			row[j] /= s
		}
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%8.4f", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Equal reports whether m and b have the same shape and bit-identical
// elements.
func (m *Matrix) Equal(b *Matrix) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// Band is a square matrix's support, row by row and column by column:
// the non-zero entries of row i lie in columns [RowLo[i], RowHi[i]) and
// those of column j in rows [ColLo[j], ColHi[j]). An all-zero row or
// column has an empty range. The ranges are hulls — zeros inside them
// are allowed — so a loop restricted to them skips only exact zeros.
type Band struct {
	RowLo, RowHi []int
	ColLo, ColHi []int
}

// BandOf records m's support. A dense matrix (a uniform prior, an
// EM-fitted matrix with smoothing) reports full width. The four ranges
// share one allocation.
func BandOf(m *Matrix) Band {
	n := m.Rows
	all := make([]int, 2*n+2*m.Cols)
	b := Band{
		RowLo: all[:n:n], RowHi: all[n : 2*n : 2*n],
		ColLo: all[2*n : 2*n+m.Cols : 2*n+m.Cols], ColHi: all[2*n+m.Cols:],
	}
	for j := range b.ColLo {
		b.ColLo[j] = n
	}
	for i := 0; i < n; i++ {
		lo, hi := m.Cols, 0
		for j, v := range m.Row(i) {
			if v == 0 {
				continue
			}
			lo = min(lo, j)
			hi = j + 1
			b.ColLo[j] = min(b.ColLo[j], i)
			b.ColHi[j] = i + 1
		}
		if lo < hi {
			b.RowLo[i], b.RowHi[i] = lo, hi
		}
	}
	for j := range b.ColLo {
		if b.ColLo[j] >= b.ColHi[j] {
			b.ColLo[j], b.ColHi[j] = 0, 0
		}
	}
	return b
}

// PowerPrefix is how many powers a PowerCache retains: A^0 … A^63,
// sixteen times the largest gap the measured traffic asks for.
const PowerPrefix = 64

// PowerCache memoizes powers of a fixed square matrix A. The EHMM steps
// between chunks through A^Δn, and the traffic asks for small gaps: a
// what-if campaign and an interventional fleet asked for Δn of 0 to 3
// alone, millions of times. The cache is one prefix of entries A^0 …
// A^(n−1), n ≤ PowerPrefix, each A^k with its Band and its element-wise
// log, built together when the power is built and never written again.
// A request below PowerPrefix grows the prefix to it under the write
// lock. A request at or past PowerPrefix — a log whose chunks start far
// apart — walks privately, outside any lock, from the prefix's top and
// retains nothing, so it pins no memory and stalls no reader.
//
// Every power comes from the same sequential walk, A^(k+1) = A^k·A, each
// row stepped through VecMulInto over A's band, so a shared, pre-warmed
// cache returns bit-identical matrices to a private one, and each equals
// the dense product walk's. The cache is safe for concurrent use: caches
// obtained from SharedPowers are read and grown by many fleet workers at
// once.
type PowerCache struct {
	mu     sync.RWMutex
	prefix []power // A^0 … A^(len−1); A^1 is the base
}

// power is one cached A^k, its support and its element-wise log (zero
// entries mapping to -Inf).
type power struct {
	m, log *Matrix
	band   Band
}

// newPower builds the entry for m. Each log element is transformed
// independently from the canonical A^k, so the entry is deterministic
// however many sessions share the cache.
func newPower(m *Matrix) power {
	lm := NewMatrix(m.Rows, m.Cols)
	for idx, v := range m.Data {
		if v <= 0 {
			lm.Data[idx] = NegInf
		} else {
			lm.Data[idx] = math.Log(v)
		}
	}
	return power{m: m, log: lm, band: BandOf(m)}
}

// NewPowerCache returns a cache over base. The base matrix is cloned, so
// later mutation of the argument does not corrupt cached results.
func NewPowerCache(base *Matrix) *PowerCache {
	if base.Rows != base.Cols {
		panic("mathx: PowerCache requires a square matrix")
	}
	return &PowerCache{prefix: []power{newPower(Identity(base.Rows)), newPower(base.Clone())}}
}

// Pow returns base^k.
func (c *PowerCache) Pow(k int) *Matrix { return c.get(k).m }

// PowBand returns base^k together with its Band.
func (c *PowerCache) PowBand(k int) (*Matrix, Band) {
	p := c.get(k)
	return p.m, p.band
}

// PowLog returns the element-wise log of base^k (zero entries mapping to
// -Inf), built with the power.
func (c *PowerCache) PowLog(k int) *Matrix { return c.get(k).log }

// Power returns base^k, its element-wise log and its Band from one
// lookup, so a power past the prefix is walked once for all three.
func (c *PowerCache) Power(k int) (a, logA *Matrix, band Band) {
	p := c.get(k)
	return p.m, p.log, p.band
}

// get returns the entry of base^k: read off the prefix, grown into it
// under the write lock, or, at or past PowerPrefix, walked privately.
func (c *PowerCache) get(k int) power {
	if k < 0 {
		panic("mathx: PowerCache requires k >= 0")
	}
	c.mu.RLock()
	prefix := c.prefix
	c.mu.RUnlock()
	if k < len(prefix) {
		return prefix[k]
	}
	if k >= PowerPrefix {
		return far(prefix, k)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.prefix) <= k {
		top := c.prefix[len(c.prefix)-1].m
		next := NewMatrix(top.Rows, top.Cols)
		step(next, top, c.prefix[1])
		c.prefix = append(c.prefix, newPower(next))
	}
	return c.prefix[k]
}

// far returns the entry of base^k for k past the prefix: the walk goes on
// from the prefix's top through two private buffers. Entries below a
// prefix's length are never written again, so it reads them unlocked.
func far(prefix []power, k int) power {
	top := len(prefix) - 1
	cur := prefix[top].m
	bufs := [2]*Matrix{NewMatrix(cur.Rows, cur.Cols), NewMatrix(cur.Rows, cur.Cols)}
	for p := top; p < k; p++ {
		step(bufs[p%2], cur, prefix[1])
		cur = bufs[p%2]
	}
	return newPower(cur)
}

// step writes src·A into dst, where base is A's entry: row i of the
// product is row i of src stepped through A by VecMulInto over A's band.
func step(dst, src *Matrix, base power) {
	for i := 0; i < src.Rows; i++ {
		base.m.VecMulInto(dst.Row(i), src.Row(i), base.band)
	}
}

// Retained reports how many powers the cache pins, at most PowerPrefix.
// Each holds two S×S matrices: the power and its log.
func (c *PowerCache) Retained() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.prefix)
}

// sharedPowers is the process-wide transition-power registry: fleets of
// sessions whose models use the same transition prior (equal capacity
// grids) share one PowerCache instead of recomputing A^Δn per session.
// Keyed by a comparable description of the matrix that its caller
// supplies, so a lookup never builds, hashes or compares the matrix;
// bounded so adversarial grid diversity cannot grow it without limit.
var sharedPowers = struct {
	mu     sync.Mutex
	caches map[any]*PowerCache
	stats  SharedPowersStats
}{caches: make(map[any]*PowerCache)}

// sharedPowersCap bounds the registry. Grids in a fleet are few (one
// per distinct MaxMbps after quantization); past the cap new keys get
// private caches and are still counted as misses.
const sharedPowersCap = 256

// SharedPowersStats breaks SharedPowers lookup traffic down by cause.
// A "miss" is any lookup that did not find a reusable cache, and the
// two causes behave very differently: cold misses are the expected
// one-per-grid warmup, while capacity misses mean the registry is full
// and the grid diversity exceeds sharedPowersCap (a private cache per
// lookup). A telemetry gauge built from the sum alone cannot tell a
// healthy warmup from a permanently-thrashing fleet.
type SharedPowersStats struct {
	Hits uint64
	// ColdMisses counts first-sight keys that were inserted into the
	// registry.
	ColdMisses uint64
	// CapacityMisses counts lookups rejected because the registry held
	// sharedPowersCap entries; they miss on every lookup.
	CapacityMisses uint64
}

// Misses returns the total miss count across both causes.
func (s SharedPowersStats) Misses() uint64 {
	return s.ColdMisses + s.CapacityMisses
}

// Sub returns s minus t, counter by counter — for computing per-run
// deltas of the process-wide totals.
func (s SharedPowersStats) Sub(t SharedPowersStats) SharedPowersStats {
	return SharedPowersStats{
		Hits:           s.Hits - t.Hits,
		ColdMisses:     s.ColdMisses - t.ColdMisses,
		CapacityMisses: s.CapacityMisses - t.CapacityMisses,
	}
}

// SharedPowers returns the process-wide PowerCache for key: every
// lookup with an equal key gets the same cache, so transition powers
// are computed once per grid rather than once per session. The key
// must determine the matrix base builds, and base runs only when the
// key is new, or when the registry is full, in which case its matrix
// gets a private cache. Keys of different types never match. K is a
// type parameter rather than any so that a lookup that finds its key
// does not move the key to the heap.
func SharedPowers[K comparable](key K, base func() *Matrix) *PowerCache {
	sharedPowers.mu.Lock()
	defer sharedPowers.mu.Unlock()
	if c, ok := sharedPowers.caches[key]; ok {
		sharedPowers.stats.Hits++
		return c
	}
	c := NewPowerCache(base())
	if len(sharedPowers.caches) >= sharedPowersCap {
		sharedPowers.stats.CapacityMisses++
		return c
	}
	sharedPowers.stats.ColdMisses++
	sharedPowers.caches[key] = c
	return c
}

// SharedPowersDetail returns the cumulative per-cause lookup counters
// of the shared power registry since process start.
func SharedPowersDetail() SharedPowersStats {
	sharedPowers.mu.Lock()
	defer sharedPowers.mu.Unlock()
	return sharedPowers.stats
}

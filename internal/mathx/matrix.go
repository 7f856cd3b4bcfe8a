// Package mathx provides the small dense-matrix and numerical routines
// that the Veritas EHMM needs: row-stochastic matrices, cached matrix
// powers (shared process-wide under a key the caller chooses, so a
// matrix is built once per key: SharedPowers), log-domain helpers and
// Gaussian densities — and the module's one seeded random source,
// NewRand.
//
// All matrices are dense, row-major float64. A matrix's support is
// recorded separately as a Band: the EHMM's tridiagonal prior makes
// every power A^k banded with half-width k, and a grid sized by a fast
// link has hundreds of states, so inference loops run over the band
// rather than the whole row — skipping only terms that are exact zeros,
// which keeps every sum, maximum and argmax bit-identical to the dense
// loop.
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

// Mul returns m × b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mathx: dimension mismatch %dx%d × %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	m.MulInto(out, b)
	return out
}

// MulInto computes m × b into dst, which must be m.Rows × b.Cols and must
// not alias m or b. The accumulation order is identical to Mul's, so the
// in-place variant is bit-identical to the allocating one.
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
// alias v (useful for forward recursions of row-stochastic chains).
func (m *Matrix) VecMulInto(dst, v []float64) {
	if m.Rows != len(v) {
		panic(fmt.Sprintf("mathx: dimension mismatch vec(%d) × %dx%d", len(v), m.Rows, m.Cols))
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("mathx: VecMulInto dst length %d, want %d", len(dst), m.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m.Row(i)
		for j, rv := range row {
			dst[j] += vi * rv
		}
	}
}

// Pow returns m^k for k ≥ 0 using exponentiation by squaring.
// m must be square; m^0 is the identity.
func (m *Matrix) Pow(k int) *Matrix {
	if m.Rows != m.Cols {
		panic("mathx: Pow requires a square matrix")
	}
	if k < 0 {
		panic("mathx: Pow requires k >= 0")
	}
	result := Identity(m.Rows)
	base := m.Clone()
	for k > 0 {
		if k&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		k >>= 1
	}
	return result
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

// PowerCache memoizes powers of a fixed square matrix. The EHMM takes
// powers A^Δn for the (small, repeating) set of inter-chunk gaps Δn, so a
// map cache eliminates almost all of the multiplication work. Each power
// is one entry: A^k, its Band and its element-wise log, built together
// when the power is built and never written again.
//
// The cache is safe for concurrent use: caches obtained from
// SharedPowers are read and grown by many fleet workers at once.
// Powers are always built by the same sequential walk (left-
// multiplying the base), so a shared, pre-warmed cache returns
// bit-identical matrices to a private one.
type PowerCache struct {
	mu     sync.RWMutex
	base   *Matrix
	powers map[int]power
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

// Retention policy for the sequential power walk, whose traffic is a
// log whose chunks start far apart: a gap Δn of thousands of
// δ-intervals. Small gaps — the normal Veritas regime — cache every
// intermediate; past powDenseRetain cached entries the walk only
// checkpoints every powStride-th power (plus the requested power
// itself), and past powRetainCap nothing new is retained at all. One
// such log therefore pins at most powRetainCap entries (2·powRetainCap
// matrices) instead of O(Δn). Every cached matrix is still produced by
// the same sequential left-multiply walk, so which subset is retained
// can never change a returned value: A^j from any retained anchor is
// the canonical A^j, and (A^j)·A is exactly the multiplication the full
// walk would do.
const (
	powDenseRetain = 256
	powStride      = 16
	powRetainCap   = 1024
)

// NewPowerCache returns a cache over base. The base matrix is cloned, so
// later mutation of the argument does not corrupt cached results.
func NewPowerCache(base *Matrix) *PowerCache {
	if base.Rows != base.Cols {
		panic("mathx: PowerCache requires a square matrix")
	}
	b := base.Clone()
	return &PowerCache{
		base:   b,
		powers: map[int]power{0: newPower(Identity(b.Rows)), 1: newPower(b)},
	}
}

// Pow returns base^k, computing — and, within the retention cap,
// caching — intermediate powers along the sequential walk.
func (c *PowerCache) Pow(k int) *Matrix { return c.get(k).m }

// PowBand returns base^k together with its Band.
func (c *PowerCache) PowBand(k int) (*Matrix, Band) {
	p := c.get(k)
	return p.m, p.band
}

// PowLog returns the element-wise log of base^k (zero entries mapping to
// -Inf), built with the power.
func (c *PowerCache) PowLog(k int) *Matrix { return c.get(k).log }

// get returns the entry of base^k, building it on a miss.
func (c *PowerCache) get(k int) power {
	if k < 0 {
		panic("mathx: PowerCache requires k >= 0")
	}
	c.mu.RLock()
	p, ok := c.powers[k]
	c.mu.RUnlock()
	if ok {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.powers[k]; ok {
		return p
	}
	// Build from the largest cached power below k. The walk always
	// left-multiplies the base one step at a time — the same sequence of
	// float operations whatever the anchor — so results are bit-identical
	// to an uncached walk from 1.
	best := 0
	for p := range c.powers {
		if p <= k && p > best {
			best = p
		}
	}
	m := c.powers[best].m
	for p := best; p < k; p++ {
		m = m.Mul(c.base)
		if c.retain(p+1, k) {
			c.powers[p+1] = newPower(m)
		}
	}
	if p, ok := c.powers[k]; ok {
		return p
	}
	return newPower(m)
}

// retain decides whether the walk keeps power p on the way to target k.
func (c *PowerCache) retain(p, k int) bool {
	if len(c.powers) >= powRetainCap {
		return false
	}
	return p == k || len(c.powers) < powDenseRetain || p%powStride == 0
}

// Retained reports how many powers the cache currently pins — the
// quantity the retention cap bounds. Each holds two S×S matrices: the
// power and its log.
func (c *PowerCache) Retained() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.powers)
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

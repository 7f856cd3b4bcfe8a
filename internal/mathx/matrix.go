// Package mathx provides the small dense-matrix and numerical routines
// that the Veritas EHMM needs: row-stochastic matrices, cached matrix
// powers, log-domain helpers and Gaussian densities — and the module's
// one seeded random source, NewRand.
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
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

// MulVec returns m × v as a new vector.
func (m *Matrix) MulVec(v []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecInto(out, v)
	return out
}

// MulVecInto computes m × v into dst (length m.Rows), which must not
// alias v. Same op order as MulVec, so results are bit-identical.
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

// VecMul returns vᵀ × m as a new vector (useful for forward recursions of
// row-stochastic chains).
func (m *Matrix) VecMul(v []float64) []float64 {
	out := make([]float64, m.Cols)
	m.VecMulInto(out, v)
	return out
}

// VecMulInto computes vᵀ × m into dst (length m.Cols), which must not
// alias v. Same accumulation order as VecMul, so results are
// bit-identical.
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

// IsRowStochastic reports whether every row sums to 1 within tol and all
// entries are non-negative.
func (m *Matrix) IsRowStochastic(tol float64) bool {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			if v < -tol {
				return false
			}
			s += v
		}
		if math.Abs(s-1) > tol {
			return false
		}
	}
	return true
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

// Fingerprint returns a 64-bit FNV-1a hash of the matrix shape and the
// raw bits of its elements — the key the shared power cache uses to
// recognize identical transition matrices across sessions.
func (m *Matrix) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(m.Rows)<<32|uint64(uint32(m.Cols)))
	h.Write(buf[:])
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
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
// is stored with its Band, recorded once when the power is built.
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
	logs   map[int]*Matrix // element-wise log of cached powers
}

// power is one cached A^k and its support.
type power struct {
	m    *Matrix
	band Band
}

// Retention policy for the sequential power walk. Small gaps — the
// normal Veritas regime — cache every intermediate exactly as before;
// past powDenseRetain cached entries the walk only checkpoints every
// powStride-th power (plus the requested power itself), and past
// powRetainCap nothing new is retained at all. One pathological query
// with a huge Δn therefore pins O(powRetainCap) matrices instead of
// O(Δn). Every cached matrix is still produced by the same sequential
// left-multiply walk, so which subset is retained can never change a
// returned value: A^j from any retained anchor is the canonical A^j,
// and (A^j)·A is exactly the multiplication the full walk would do.
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
	id := Identity(b.Rows)
	return &PowerCache{
		base:   b,
		powers: map[int]power{0: {id, BandOf(id)}, 1: {b, BandOf(b)}},
	}
}

// Pow returns base^k, computing — and, within the retention cap,
// caching — intermediate powers along the sequential walk.
func (c *PowerCache) Pow(k int) *Matrix {
	m, _ := c.PowBand(k)
	return m
}

// PowBand returns base^k together with its Band.
func (c *PowerCache) PowBand(k int) (*Matrix, Band) {
	if k < 0 {
		panic("mathx: PowerCache.Pow requires k >= 0")
	}
	c.mu.RLock()
	p, ok := c.powers[k]
	c.mu.RUnlock()
	if ok {
		return p.m, p.band
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p = c.powLocked(k)
	return p.m, p.band
}

func (c *PowerCache) powLocked(k int) power {
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
			c.powers[p+1] = power{m, BandOf(m)}
		}
	}
	if p, ok := c.powers[k]; ok {
		return p
	}
	return power{m, BandOf(m)}
}

// retain decides whether the walk keeps power p on the way to target k.
func (c *PowerCache) retain(p, k int) bool {
	if len(c.powers) >= powRetainCap {
		return false
	}
	return p == k || len(c.powers) < powDenseRetain || p%powStride == 0
}

// PowLog returns the element-wise log of base^k (zero entries mapping to
// -Inf), memoized alongside the powers. Each element is transformed
// independently from the canonical A^k, so the result is deterministic
// however many sessions share the cache.
func (c *PowerCache) PowLog(k int) *Matrix {
	if k < 0 {
		panic("mathx: PowerCache.PowLog requires k >= 0")
	}
	c.mu.RLock()
	lm, ok := c.logs[k]
	c.mu.RUnlock()
	if ok {
		return lm
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if lm, ok := c.logs[k]; ok {
		return lm
	}
	a := c.powLocked(k).m
	lm = NewMatrix(a.Rows, a.Cols)
	for idx, v := range a.Data {
		if v <= 0 {
			lm.Data[idx] = NegInf
		} else {
			lm.Data[idx] = math.Log(v)
		}
	}
	if c.logs == nil {
		c.logs = make(map[int]*Matrix)
	}
	if len(c.logs) < powRetainCap {
		c.logs[k] = lm
	}
	return lm
}

// Retained reports how many powers (and log powers) the cache currently
// pins — the quantity the retention cap bounds.
func (c *PowerCache) Retained() (powers, logs int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.powers), len(c.logs)
}

// sharedPowers is the process-wide transition-power registry: fleets of
// sessions whose models use identical transition matrices (equal
// capacity grids) share one PowerCache instead of recomputing A^Δn per
// session. Keyed by Matrix.Fingerprint with an equality check against
// collisions; bounded so adversarial matrix diversity cannot grow it
// without limit.
var sharedPowers = struct {
	mu     sync.Mutex
	caches map[uint64]*PowerCache
	stats  SharedPowersStats
}{caches: make(map[uint64]*PowerCache)}

// sharedPowersCap bounds the registry. Grids in a fleet are few (one
// per distinct MaxMbps after quantization); past the cap new matrices
// get private caches and are still counted as misses.
const sharedPowersCap = 256

// SharedPowersStats breaks SharedPowers lookup traffic down by cause.
// A "miss" is any lookup that did not find a reusable cache, and the
// three causes behave very differently: cold misses are the expected
// one-per-grid warmup, collision misses mean two distinct matrices hash
// to one fingerprint (the colliding matrix gets a private cache on
// every lookup), and capacity misses mean the registry is full and the
// grid diversity exceeds sharedPowersCap (also a private cache per
// lookup). A telemetry gauge built from the sum alone cannot tell a
// healthy warmup from a permanently-thrashing fleet.
type SharedPowersStats struct {
	Hits uint64
	// ColdMisses counts first-sight matrices that were inserted into
	// the registry.
	ColdMisses uint64
	// CollisionMisses counts lookups that found a fingerprint match
	// with a different matrix (FNV-1a collision); such matrices are
	// never inserted and miss on every lookup.
	CollisionMisses uint64
	// CapacityMisses counts lookups rejected because the registry held
	// sharedPowersCap entries; they also miss on every lookup.
	CapacityMisses uint64
}

// Misses returns the total miss count across all three causes.
func (s SharedPowersStats) Misses() uint64 {
	return s.ColdMisses + s.CollisionMisses + s.CapacityMisses
}

// Sub returns s minus t, counter by counter — for computing per-run
// deltas of the process-wide totals.
func (s SharedPowersStats) Sub(t SharedPowersStats) SharedPowersStats {
	return SharedPowersStats{
		Hits:            s.Hits - t.Hits,
		ColdMisses:      s.ColdMisses - t.ColdMisses,
		CollisionMisses: s.CollisionMisses - t.CollisionMisses,
		CapacityMisses:  s.CapacityMisses - t.CapacityMisses,
	}
}

// SharedPowers returns a process-wide PowerCache for base: sessions
// with bit-identical matrices get the same cache, so transition powers
// are computed once per grid rather than once per session. On a
// fingerprint collision (hash equal, matrix different) or when the
// registry is full, a private cache is returned.
func SharedPowers(base *Matrix) *PowerCache {
	fp := base.Fingerprint()
	sharedPowers.mu.Lock()
	defer sharedPowers.mu.Unlock()
	existing, collided := sharedPowers.caches[fp]
	if collided && existing.base.Equal(base) {
		sharedPowers.stats.Hits++
		return existing
	}
	c := NewPowerCache(base)
	switch {
	case collided:
		sharedPowers.stats.CollisionMisses++
	case len(sharedPowers.caches) >= sharedPowersCap:
		sharedPowers.stats.CapacityMisses++
	default:
		sharedPowers.stats.ColdMisses++
		sharedPowers.caches[fp] = c
	}
	return c
}

// SharedPowersDetail returns the cumulative per-cause lookup counters
// of the shared power registry since process start.
func SharedPowersDetail() SharedPowersStats {
	sharedPowers.mu.Lock()
	defer sharedPowers.mu.Unlock()
	return sharedPowers.stats
}

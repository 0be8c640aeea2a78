package lp

// Scratch is a reusable allocation arena for the dense simplex tableau.
// Branch-and-bound solves thousands of closely-sized LPs back to back;
// drawing the tableau matrix and work vectors from one arena instead of
// reallocating them per solve removes the dominant allocation cost of the
// search (the m×n dense matrix).
//
// A Scratch may be reused across solves of differently-sized problems (it
// grows monotonically and zeroes what it hands out) but must not be shared
// by concurrent solves — give each worker its own.
type Scratch struct {
	f                []float64
	ints             []int
	bs               []bool
	rows             [][]float64
	fOff, iOff, bOff int
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch { return &Scratch{} }

// begin prepares the arena for one tableau of m rows and n columns,
// presizing the backings so later sub-allocations never reallocate.
func (s *Scratch) begin(m, n int) {
	s.fOff, s.iOff, s.bOff = 0, 0, 0
	nf := m*n + m + 3*n // matrix + b + upper/cost1/cost2
	if cap(s.f) < nf {
		s.f = make([]float64, nf)
	}
	s.f = s.f[:cap(s.f)]
	if cap(s.ints) < m {
		s.ints = make([]int, m)
	}
	s.ints = s.ints[:cap(s.ints)]
	if cap(s.bs) < 2*n {
		s.bs = make([]bool, 2*n)
	}
	s.bs = s.bs[:cap(s.bs)]
	if cap(s.rows) < m {
		s.rows = make([][]float64, m)
	}
	s.rows = s.rows[:cap(s.rows)]
}

// floats hands out a zeroed float vector of length n. Nil receivers (no
// arena) fall back to plain allocation, so tableau construction needs no
// branching at the call sites.
func (s *Scratch) floats(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	out := s.f[s.fOff : s.fOff+n]
	s.fOff += n
	for i := range out {
		out[i] = 0
	}
	return out
}

// intSlice hands out a zeroed int vector of length n.
func (s *Scratch) intSlice(n int) []int {
	if s == nil {
		return make([]int, n)
	}
	out := s.ints[s.iOff : s.iOff+n]
	s.iOff += n
	for i := range out {
		out[i] = 0
	}
	return out
}

// boolSlice hands out a zeroed bool vector of length n.
func (s *Scratch) boolSlice(n int) []bool {
	if s == nil {
		return make([]bool, n)
	}
	out := s.bs[s.bOff : s.bOff+n]
	s.bOff += n
	for i := range out {
		out[i] = false
	}
	return out
}

// matrix hands out an m×n zeroed dense matrix.
func (s *Scratch) matrix(m, n int) [][]float64 {
	if s == nil {
		out := make([][]float64, m)
		for i := range out {
			out[i] = make([]float64, n)
		}
		return out
	}
	out := s.rows[:m]
	for i := range out {
		out[i] = s.floats(n)
	}
	return out
}

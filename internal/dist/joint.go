package dist

import "math"

// Joint is a list of independent distributions compiled for joint Monte
// Carlo draws: one draw takes one variate from every input, in order, and
// folds them into one value. It is the one draw loop of the Monte Carlo
// path: an aggregate over a window column and an expression over a tuple's
// fields both run it.
//
// Each input compiles once into a row:
//
//   - a point input keeps its value;
//   - a normal input keeps μ and √σ² and takes its standard variate from
//     Rand.NormFloat64, whose polar method rejects and keeps a spare;
//   - a histogram of up to five buckets keeps its first four prefix sums,
//     padded with +Inf, and counts the ones ≤ u without a branch on u (pick's
//     counting rule), then its buckets' low edges and widths;
//   - every other distribution is drawn through its own Sample.
//
// Point and normal rows are the columnar window's own slots, compiled
// without boxing a Distribution; the short histogram is the input of the
// benchmark's kernel-mc workload, where the counted table beats the call
// into Histogram.Sample. A longer histogram, a discrete or uniform input,
// or a distribution whose draw count varies (the exponential's
// open-interval retry, the gamma's rejection, a mixture's component) takes
// the Sample row; a row shape of its own for any of them is worth its code
// only once a measurement shows it beating that call.
//
// The loop holds the generator state in locals and writes it back to the
// *Rand only around the rows that draw through the Rand's methods and at
// the end. A Joint of Sample rows alone leaves the state in the *Rand
// throughout: moving it out and back around every row gains nothing there
// and cost a column of forty-bucket histograms about 20 % against the
// per-input Sample loop this one replaced. Every row makes the generator
// calls and float operations its distribution's Sample makes, in the same
// order — a precomputed Edges[i+1]−Edges[i] is the same double as one
// computed per draw — so a draw is bit-identical to calling Sample on each
// input, and the *Rand ends in the state those calls leave it in, spare
// normal included.
//
// A Joint is written only by Reset and Add*, so one that is not being
// added to may be drawn from by any number of generators at once.
type Joint struct {
	rows  []row
	hists []histRow      // the histogram rows' tables, in input order
	dists []Distribution // the Sample rows' distributions, in input order
}

type rowKind uint8

const (
	rowPoint     rowKind = iota // a
	rowNormal                   // a + b·NormFloat64
	rowHistogram                // *h, which is hists[i]
	rowSample                   // dists[i].Sample
)

// row is one input. Its histogram table lives in Joint.hists, so a row of a
// point or normal slot takes 32 bytes, not the 136 of a table kept inline;
// the loop reaches the table through h, without the bounds check an index
// into hists would cost on every draw.
type row struct {
	kind rowKind
	i    int32
	h    *histRow
	a, b float64
}

// rowBuckets is the most buckets a histogram row holds inline: the tables
// pick counts rather than searches.
const rowBuckets = pickLinearMax + 1

// histRow is a histogram of up to rowBuckets buckets: the prefix sums pick
// counts, padded with +Inf, then every bucket's low edge and width.
type histRow struct {
	c  [pickLinearMax]float64
	lo [rowBuckets]float64
	w  [rowBuckets]float64
}

// FoldOp names how a joint draw's variates fold into one value.
type FoldOp uint8

const (
	// FoldSum is the variates' sum, added in input order from 0, times W.
	FoldSum FoldOp = iota
	// FoldMin is the least variate. Draw folds with the min builtin, which
	// is branch-free where math.Min is a call; the two differ only on a NaN
	// operand (math.Min lets −Inf win over it), so they agree on every fold
	// that stays finite and Draw skips the rest. −0 is less than +0 for both.
	FoldMin
	// FoldMax is the greatest variate, with the max builtin in Draw, as
	// FoldMin.
	FoldMax
	// FoldFunc is F applied to the variates, in input order.
	FoldFunc
)

// Fold is how Draw reduces each joint draw to one value.
type Fold struct {
	Op FoldOp
	W  float64                               // FoldSum's multiplier
	F  func(args []float64) (float64, error) // FoldFunc's function
}

// Reset empties j, keeping its storage but no distribution.
func (j *Joint) Reset() {
	j.rows = j.rows[:0]
	j.hists = j.hists[:0]
	clear(j.dists)
	j.dists = j.dists[:0]
}

// Len returns the number of inputs.
func (j *Joint) Len() int { return len(j.rows) }

// AddPoint appends the degenerate input Point{V: v}.
func (j *Joint) AddPoint(v float64) {
	j.rows = append(j.rows, row{kind: rowPoint, a: v})
}

// AddNormal appends the input Normal{Mu: mu, Sigma2: sigma2}.
func (j *Joint) AddNormal(mu, sigma2 float64) {
	j.rows = append(j.rows, row{kind: rowNormal, a: mu, b: math.Sqrt(sigma2)})
}

// Add appends input d.
func (j *Joint) Add(d Distribution) {
	switch d := d.(type) {
	case Point:
		j.AddPoint(d.V)
		return
	case Normal:
		j.AddNormal(d.Mu, d.Sigma2)
		return
	case *Histogram:
		// A struct literal of the wrong shape keeps the panic its Sample
		// raises.
		if d != nil && len(d.Probs) > 0 && len(d.Probs) <= rowBuckets && len(d.Edges) == len(d.Probs)+1 {
			j.addHistogram(d)
			return
		}
	}
	j.rows = append(j.rows, row{kind: rowSample, i: int32(len(j.dists))})
	j.dists = append(j.dists, d)
}

func (j *Joint) addHistogram(h *Histogram) {
	b := len(h.Probs)
	cum := h.cum
	if len(cum) != b {
		// A literal has no table; pick would fold the same sums as it counts.
		cum = prefixSums(h.Probs)
	}
	// The entries pick counts — all but the last — padded with +Inf, which
	// no draw in [0, 1) reaches.
	t := histRow{c: [pickLinearMax]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}}
	copy(t.c[:], cum[:b-1])
	for i := 0; i < b; i++ {
		t.lo[i] = h.Edges[i]
		t.w[i] = h.Edges[i+1] - h.Edges[i]
	}
	moved := len(j.hists) == cap(j.hists)
	j.hists = append(j.hists, t)
	j.rows = append(j.rows, row{kind: rowHistogram, i: int32(len(j.hists) - 1)})
	if !moved {
		j.rows[len(j.rows)-1].h = &j.hists[len(j.hists)-1]
		return
	}
	// The tables moved to a larger array: point every row at its new place.
	for k := range j.rows {
		if rw := &j.rows[k]; rw.kind == rowHistogram {
			rw.h = &j.hists[rw.i]
		}
	}
}

// Draw appends to dst the folds of m joint draws from r, skipping any that
// is NaN or infinite, and returns the extended slice. An error from a
// FoldFunc function ends the draws with r in the state that draw left it.
func (j *Joint) Draw(r *Rand, dst []float64, m int, f Fold) ([]float64, error) {
	var args []float64
	if f.Op == FoldFunc {
		args = make([]float64, len(j.rows))
	}
	g := r.g
	for k := 0; k < m; k++ {
		var v float64
		if len(j.dists) < len(j.rows) {
			g, v = j.once(g, r, f.Op, args)
		} else {
			r.g = g
			v = j.onceSampled(r, f.Op, args)
			g = r.g
		}
		switch f.Op {
		case FoldSum:
			v *= f.W
		case FoldFunc:
			var err error
			if v, err = f.F(args); err != nil {
				r.g = g
				return dst, err
			}
		}
		if !(math.IsNaN(v) || math.IsInf(v, 0)) {
			dst = append(dst, v)
		}
	}
	r.g = g
	return dst, nil
}

// Exact returns the fold of the inputs' values, all of which must be
// points: the value every joint draw takes, computed once, with math.Min and
// math.Max for MIN and MAX. Unlike Draw it returns a NaN or infinite fold.
func (j *Joint) Exact(f Fold) (float64, error) {
	xs := make([]float64, len(j.rows))
	for i := range j.rows {
		if j.rows[i].kind != rowPoint {
			panic("dist: Exact over an input that is not a point")
		}
		xs[i] = j.rows[i].a
	}
	switch f.Op {
	case FoldSum:
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s * f.W, nil
	case FoldMin, FoldMax:
		v := xs[0]
		for _, x := range xs[1:] {
			if f.Op == FoldMin {
				v = math.Min(v, x)
			} else {
				v = math.Max(v, x)
			}
		}
		return v, nil
	}
	return f.F(xs)
}

// once takes one joint draw from generator state g and returns the state
// after it with the draw folded by op (FoldSum before its multiplier; for
// FoldFunc the variates are left in args). It is a function of its own so
// that the row loop has few live values and keeps g in registers.
func (j *Joint) once(g gen, r *Rand, op FoldOp, args []float64) (gen, float64) {
	acc := foldStart(op)
	rows := j.rows
	for i := range rows {
		rw := &rows[i]
		var x float64
		switch rw.kind {
		case rowPoint:
			x = rw.a
		case rowHistogram:
			h := rw.h
			var u uint64
			g, u = g.next()
			p := unit(u)
			b := b2i(h.c[0] <= p) + b2i(h.c[1] <= p) + b2i(h.c[2] <= p) + b2i(h.c[3] <= p)
			g, u = g.next()
			x = h.lo[b] + unit(u)*h.w[b]
		case rowNormal:
			r.g = g
			x = rw.a + rw.b*r.NormFloat64()
			g = r.g
		default:
			r.g = g
			x = j.dists[rw.i].Sample(r)
			g = r.g
		}
		acc = fold(op, acc, x, args, i)
	}
	return g, acc
}

// onceSampled is once for a Joint whose every row is a Sample row: it
// leaves the generator state in r, where Sample keeps it.
func (j *Joint) onceSampled(r *Rand, op FoldOp, args []float64) float64 {
	acc := foldStart(op)
	for i, d := range j.dists {
		acc = fold(op, acc, d.Sample(r), args, i)
	}
	return acc
}

// foldStart is the fold by op of no variates.
func foldStart(op FoldOp) float64 {
	switch op {
	case FoldMin:
		return math.Inf(1)
	case FoldMax:
		return math.Inf(-1)
	}
	return 0
}

// fold folds input i's variate x into acc by op.
func fold(op FoldOp, acc, x float64, args []float64, i int) float64 {
	switch op {
	case FoldSum:
		return acc + x
	case FoldMin:
		return min(acc, x)
	case FoldMax:
		return max(acc, x)
	}
	args[i] = x
	return acc
}

package sketch

import (
	"fmt"
	"math"
)

// DefaultBlocks is the default block count of a sketch window: enough
// granularity that the window over-covers by at most ~6% of its size, few
// enough that merged summaries stay cheap.
const DefaultBlocks = 16

// Obs is one tuple's contribution to one tracked column: the field's
// distribution mean and variance and its d.f. sample size.
type Obs struct {
	Mean     float64
	Variance float64
	N        int
}

// ColSummary is the mergeable per-column summary a sketch window maintains
// per block: moments and a quantile sketch over the per-tuple field means,
// probability-weighted estimator moments for membership uncertainty, the
// summed field variance (value uncertainty), and the Lemma 3 d.f. sample
// size (minimum N over non-deterministic fields).
type ColSummary struct {
	Mom    Moments     `json:"mom"`
	Prob   ProbMoments `json:"prob"`
	Quant  *Quantile   `json:"quant,omitempty"`
	SumVar float64     `json:"sum_var,omitempty"`
	MinN   int         `json:"min_n,omitempty"`
}

// newColSummary returns an empty summary with quantile capacity k.
func newColSummary(k int) ColSummary {
	return ColSummary{Quant: NewQuantile(k)}
}

// Add absorbs one tuple's field observation with membership probability p.
func (s *ColSummary) Add(o Obs, p float64) error {
	if err := s.Quant.Add(o.Mean); err != nil {
		return err
	}
	s.Mom.Add(o.Mean)
	s.Prob.Add(o.Mean, p)
	s.SumVar += o.Variance
	if o.N > 0 && (s.MinN == 0 || o.N < s.MinN) {
		s.MinN = o.N
	}
	return nil
}

// Merge combines o into s. All components are mergeable: moments via Chan,
// probabilistic moments by addition, quantile sketches by compaction with
// additive error, SumVar by addition, MinN by the Lemma 3 minimum rule.
func (s *ColSummary) Merge(o *ColSummary) {
	s.Mom.Merge(o.Mom)
	s.Prob.Merge(o.Prob)
	if s.Quant == nil {
		s.Quant = o.Quant.clone()
	} else {
		s.Quant.Merge(o.Quant)
	}
	s.SumVar += o.SumVar
	if o.MinN > 0 && (s.MinN == 0 || o.MinN < s.MinN) {
		s.MinN = o.MinN
	}
}

// Clone returns a deep copy.
func (s *ColSummary) Clone() ColSummary {
	out := *s
	if s.Quant != nil {
		out.Quant = s.Quant.clone()
	}
	return out
}

// Validate checks structural consistency of (possibly deserialized) state.
func (s *ColSummary) Validate() error {
	if err := s.Mom.validate(); err != nil {
		return err
	}
	if err := s.Prob.validate(); err != nil {
		return err
	}
	if s.Quant == nil {
		return fmt.Errorf("sketch: column summary without quantile sketch")
	}
	if err := s.Quant.Validate(); err != nil {
		return err
	}
	if s.Mom.N != s.Quant.N || s.Mom.N != s.Prob.N {
		return fmt.Errorf("sketch: summary counts disagree: moments %d, quantile %d, prob %d",
			s.Mom.N, s.Quant.N, s.Prob.N)
	}
	if s.SumVar < 0 || math.IsNaN(s.SumVar) || math.IsInf(s.SumVar, 0) {
		return fmt.Errorf("sketch: invalid summed variance %v", s.SumVar)
	}
	if s.MinN < 0 {
		return fmt.Errorf("sketch: negative d.f. sample size %d", s.MinN)
	}
	return nil
}

// Block is one sealed (or the active) span of window rows, summarized per
// tracked column.
type Block struct {
	Rows int          `json:"rows"`
	Cols []ColSummary `json:"cols"`
}

// Window is a bounded-memory sliding window over per-tuple column
// observations: a ring of sealed immutable blocks plus one active block
// absorbing pushes. Sealing happens every BlockRows pushes; eviction keeps
// the sealed row total in [W, W+BlockRows). The merged summary therefore
// covers the most recent W..W+BlockRows−1 rows — a block-granular slide,
// the documented semantic difference from the exact backends — and results
// are emitted once per sealed block rather than once per push.
//
// All fields are exported for lossless JSON round-trips through checkpoints
// and replication; mutate only through the methods.
type Window struct {
	W         int     `json:"w"`
	B         int     `json:"b"`
	BlockRows int     `json:"block_rows"`
	K         int     `json:"k"`
	NCols     int     `json:"ncols"`
	Active    Block   `json:"active"`
	Sealed    []Block `json:"sealed,omitempty"`
	LiveRows  int     `json:"live_rows,omitempty"` // rows across sealed blocks
	Seals     uint64  `json:"seals,omitempty"`     // blocks sealed over the window's lifetime
}

// NewWindow builds a window of w rows split into blocks blocks (quantile
// capacity k per column per block), tracking ncols columns.
func NewWindow(w, blocks, k, ncols int) (*Window, error) {
	if w < 1 {
		return nil, fmt.Errorf("sketch: window of %d rows", w)
	}
	if blocks < 1 {
		return nil, fmt.Errorf("sketch: window with %d blocks", blocks)
	}
	if ncols < 0 {
		return nil, fmt.Errorf("sketch: window over %d columns", ncols)
	}
	if blocks > w {
		blocks = w
	}
	win := &Window{
		W:         w,
		B:         blocks,
		BlockRows: (w + blocks - 1) / blocks,
		K:         k,
		NCols:     ncols,
	}
	win.Active = win.newBlock()
	return win, nil
}

func (w *Window) newBlock() Block {
	cols := make([]ColSummary, w.NCols)
	for i := range cols {
		cols[i] = newColSummary(w.K)
	}
	return Block{Cols: cols}
}

// Push absorbs one tuple: obs holds the tracked columns' observations in
// column order, p is the tuple's membership probability. It returns true
// when the push sealed a block — the once-per-block emission point.
func (w *Window) Push(obs []Obs, p float64) (bool, error) {
	if len(obs) != w.NCols {
		return false, fmt.Errorf("sketch: push of %d observations into a %d-column window", len(obs), w.NCols)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return false, fmt.Errorf("sketch: membership probability %v outside [0,1]", p)
	}
	for i := range obs {
		if err := w.Active.Cols[i].Add(obs[i], p); err != nil {
			return false, err
		}
	}
	w.Active.Rows++
	if w.Active.Rows < w.BlockRows {
		return false, nil
	}
	// Seal: the active block becomes the newest sealed block, then the
	// oldest sealed blocks are evicted while the remainder still covers W.
	w.Sealed = append(w.Sealed, w.Active)
	w.LiveRows += w.Active.Rows
	w.Seals++
	w.Active = w.newBlock()
	for len(w.Sealed) > 1 && w.LiveRows-w.Sealed[0].Rows >= w.W {
		w.LiveRows -= w.Sealed[0].Rows
		w.Sealed = w.Sealed[1:]
	}
	return true, nil
}

// Full reports whether the sealed blocks cover at least W rows — the point
// from which sealing a block also emits a result.
func (w *Window) Full() bool { return w.LiveRows >= w.W }

// Rows returns the number of rows covered by the sealed blocks (what a
// merged summary summarizes).
func (w *Window) Rows() int { return w.LiveRows }

// Pushes returns the total number of observations the window has absorbed
// over its lifetime (evicted blocks included). Two windows with the same
// geometry fed the same deterministic observation sequence hold identical
// state exactly when their push counts agree — the content-equality
// admission test the multi-query planner uses before sharing a sketch
// window across queries.
func (w *Window) Pushes() uint64 {
	return w.Seals*uint64(w.BlockRows) + uint64(w.Active.Rows)
}

// MergedCol returns the summary of column i merged across the sealed
// blocks, oldest first — the fixed merge order that keeps float rounding
// deterministic. The result is detached from window state.
func (w *Window) MergedCol(i int) (ColSummary, error) {
	if i < 0 || i >= w.NCols {
		return ColSummary{}, fmt.Errorf("sketch: column %d of %d", i, w.NCols)
	}
	if len(w.Sealed) == 0 {
		return ColSummary{}, fmt.Errorf("sketch: merged summary of an empty window")
	}
	out := w.Sealed[0].Cols[i].Clone()
	for _, b := range w.Sealed[1:] {
		out.Merge(&b.Cols[i])
	}
	return out, nil
}

// ItemCount returns the total retained quantile items across all blocks and
// columns — the window's dominant memory term.
func (w *Window) ItemCount() int {
	n := 0
	for i := range w.Active.Cols {
		n += w.Active.Cols[i].Quant.ItemCount()
	}
	for _, b := range w.Sealed {
		for i := range b.Cols {
			n += b.Cols[i].Quant.ItemCount()
		}
	}
	return n
}

// Clone returns a deep copy (checkpoints capture it while the live window
// keeps mutating).
func (w *Window) Clone() *Window {
	out := *w
	out.Active = cloneBlock(w.Active)
	out.Sealed = make([]Block, len(w.Sealed))
	for i := range w.Sealed {
		out.Sealed[i] = cloneBlock(w.Sealed[i])
	}
	return &out
}

func cloneBlock(b Block) Block {
	out := Block{Rows: b.Rows, Cols: make([]ColSummary, len(b.Cols))}
	for i := range b.Cols {
		out.Cols[i] = b.Cols[i].Clone()
	}
	return out
}

// Validate checks structural consistency of (possibly deserialized) state;
// restored checkpoints and replicated snapshots run through it before use.
func (w *Window) Validate() error {
	if w.W < 1 || w.B < 1 || w.BlockRows < 1 || w.NCols < 0 {
		return fmt.Errorf("sketch: window geometry w=%d b=%d blockRows=%d ncols=%d", w.W, w.B, w.BlockRows, w.NCols)
	}
	if w.BlockRows != (w.W+w.B-1)/w.B {
		return fmt.Errorf("sketch: block size %d does not match ⌈%d/%d⌉", w.BlockRows, w.W, w.B)
	}
	if err := w.validateBlock(&w.Active, true); err != nil {
		return err
	}
	live := 0
	for i := range w.Sealed {
		if err := w.validateBlock(&w.Sealed[i], false); err != nil {
			return fmt.Errorf("sketch: sealed block %d: %w", i, err)
		}
		live += w.Sealed[i].Rows
	}
	if live != w.LiveRows {
		return fmt.Errorf("sketch: sealed rows %d do not sum to live count %d", live, w.LiveRows)
	}
	if w.LiveRows >= w.W+w.BlockRows {
		return fmt.Errorf("sketch: %d live rows exceed window bound %d", w.LiveRows, w.W+w.BlockRows-1)
	}
	return nil
}

func (w *Window) validateBlock(b *Block, active bool) error {
	if len(b.Cols) != w.NCols {
		return fmt.Errorf("sketch: block with %d columns, window tracks %d", len(b.Cols), w.NCols)
	}
	max := w.BlockRows
	if active {
		max-- // a full active block would have been sealed
	}
	if b.Rows < 0 || b.Rows > max {
		return fmt.Errorf("sketch: block of %d rows outside [0,%d]", b.Rows, max)
	}
	for i := range b.Cols {
		if err := b.Cols[i].Validate(); err != nil {
			return fmt.Errorf("column %d: %w", i, err)
		}
		if b.Cols[i].Mom.N != uint64(b.Rows) {
			return fmt.Errorf("column %d summarizes %d rows, block holds %d", i, b.Cols[i].Mom.N, b.Rows)
		}
	}
	return nil
}

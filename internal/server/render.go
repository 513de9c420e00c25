package server

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/accuracy"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/stream"
)

// Render-once serving path: each emission's JSON body is rendered once into
// a pooled frame, and every DATA line carrying it (one per plan-group member
// and recipient) is "DATA <id> " written in front of those bytes as the line
// is staged into a write batch (conn.stageData). Frames are
// reference-counted: planDeliveries sets the count to one per line for
// another connection, plus one the command holds while it writes its own
// connection's lines; each recipient path and the command release exactly
// once, and the buffer returns to the pool only at zero. See the ownership
// contract in internal/stream/doc.go.
//
// The renderer itself (appendResult) is a strconv.Append* replication of
// json.Marshal(EncodeResult(r)) — byte-identical, pinned by
// TestRenderMatchesJSON and the golden transcripts — so the steady-state
// push path allocates nothing.

// maxPooledFrame caps the buffer capacity a recycled frame may retain, so
// one huge result (e.g. a wide histogram) doesn't pin memory forever.
const maxPooledFrame = 64 * 1024

// frame is one rendered DATA body: the JSON and its trailing newline.
type frame struct {
	buf  []byte
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// newFrame returns an empty frame with a reference count of 1 (the
// renderer's own reference; planDeliveries overwrites it with the final
// count before any recipient can release).
func newFrame() *frame {
	f := framePool.Get().(*frame)
	f.buf = f.buf[:0]
	f.refs.Store(1)
	return f
}

// release drops one reference; the last one recycles the frame.
func (f *frame) release() {
	if f.refs.Add(-1) == 0 {
		if cap(f.buf) <= maxPooledFrame {
			framePool.Put(f)
		}
	}
}

// bodyCache maps an output tuple to the emission (an index into
// deliveryScratch.ems) rendered for the first result that carried it in
// this command.
//
// Keying on the tuple pointer is sound because emitted tuples are immutable
// and an output tuple belongs to exactly one emission (internal/stream/
// doc.go): two results share a *Tuple only when a plan group handed its one
// emission — tuple, Fields and TupleProb together — to several members.
// Queries that merely computed equal values hold distinct tuples and render
// from their own results.
type bodyCache map[*stream.Tuple]int

// emission is one body rendered in a command, or the error rendering it
// failed with, and the references its recipients take.
type emission struct {
	tupleProb *accuracy.Interval
	unsure    bool
	body      *frame // nil when rendering failed
	err       error
	refs      int32 // one per line for another connection, plus the command's
	own       bool  // a line goes to the inserting connection: the command holds a reference
}

// renderBody renders r's JSON body and newline into a new frame.
func renderBody(r core.Result) emission {
	e := emission{tupleProb: r.TupleProb, unsure: r.Unsure, body: newFrame()}
	var err error
	if e.body.buf, err = appendResult(e.body.buf, r); err != nil {
		e.body.release()
		e.body, e.err = nil, err
		return e
	}
	e.body.buf = append(e.body.buf, '\n')
	return e
}

// appendResult appends the wire JSON for r, byte-identical to
// json.Marshal(EncodeResult(r)): same field order, same omitempty
// behavior, same sorted map keys, same float formatting, and the same
// "json: unsupported value" errors on non-finite numbers.
func appendResult(dst []byte, r core.Result) ([]byte, error) {
	var (
		err error
		lv  levelMemo
	)
	dst = append(dst, `{"fields":{`...)
	cols := r.Tuple.Schema.Columns
	n := len(r.Tuple.Fields)
	// json.Marshal emits map keys in sorted order; column counts are small,
	// so an insertion sort over a stack-allocated index array keeps the
	// steady-state path allocation-free.
	var idxBuf [16]int
	idx := idxBuf[:0]
	if n > len(idxBuf) {
		idx = make([]int, 0, n)
	}
	for i := 0; i < n; i++ {
		idx = append(idx, i)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && cols[idx[j]].Name < cols[idx[j-1]].Name; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for k, i := range idx {
		if k > 0 {
			dst = append(dst, ',')
		}
		name := cols[i].Name
		dst = codec.AppendString(dst, name)
		dst = append(dst, ':')
		if dst, err = appendFieldJSON(dst, r.Tuple.Fields[i].Dist, r.Tuple.Fields[i].N, r.Fields[name], &lv); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `},"prob":`...)
	if dst, err = codec.AppendFloat(dst, r.Tuple.Prob); err != nil {
		return dst, err
	}
	if r.Tuple.ProbN != 0 {
		dst = append(dst, `,"prob_n":`...)
		dst = strconv.AppendInt(dst, int64(r.Tuple.ProbN), 10)
	}
	if r.TupleProb != nil {
		dst = append(dst, `,"prob_interval":`...)
		if dst, err = appendInterval(dst, *r.TupleProb, &lv); err != nil {
			return dst, err
		}
	}
	if r.Unsure {
		dst = append(dst, `,"unsure":true`...)
	}
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, r.Tuple.Seq, 10)
	if r.Tuple.Time != 0 {
		dst = append(dst, `,"time":`...)
		dst = strconv.AppendInt(dst, r.Tuple.Time, 10)
	}
	return append(dst, '}'), nil
}

// appendFieldJSON appends one FieldJSON object. Each number is formatted
// once: a Point's or Normal's "dist" summary and "repr" copy the bytes of
// "mean" and "variance" (see reuseShortest), and lv carries the body's last
// interval level.
func appendFieldJSON(dst []byte, d dist.Distribution, n int, info *accuracy.Info, lv *levelMemo) ([]byte, error) {
	var err error
	dst = append(dst, `{"mean":`...)
	mean := len(dst)
	if dst, err = codec.AppendFloat(dst, d.Mean()); err != nil {
		return dst, err
	}
	meanEnd := len(dst)
	dst = append(dst, `,"variance":`...)
	variance := len(dst)
	if dst, err = codec.AppendFloat(dst, d.Variance()); err != nil {
		return dst, err
	}
	varianceEnd := len(dst)
	if n != 0 {
		dst = append(dst, `,"n":`...)
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	dst = append(dst, `,"dist":`...)
	switch v := d.(type) {
	case dist.Point: // mean is V, variance 0
		dst = append(dst, `"Point(`...)
		dst = reuseShortest(dst, v.V, mean, meanEnd)
		dst = append(dst, `)","repr":{"type":"point"`...)
		if v.V != 0 {
			dst = append(dst, `,"a":`...)
			dst = append(dst, dst[mean:meanEnd]...)
		}
		dst = append(dst, '}')
	case dist.Normal: // mean is Mu, variance Sigma2
		dst = append(dst, `"Normal(μ=`...)
		dst = reuseShortest(dst, v.Mu, mean, meanEnd)
		dst = append(dst, `, σ²=`...)
		dst = reuseShortest(dst, v.Sigma2, variance, varianceEnd)
		dst = append(dst, `)","repr":{"type":"normal"`...)
		if v.Mu != 0 {
			dst = append(dst, `,"a":`...)
			dst = append(dst, dst[mean:meanEnd]...)
		}
		if v.Sigma2 != 0 {
			dst = append(dst, `,"b":`...)
			dst = append(dst, dst[variance:varianceEnd]...)
		}
		dst = append(dst, '}')
	default:
		dst = appendDistString(dst, d)
		// Repr is omitted when the distribution has no codec encoding,
		// exactly as EncodeResult drops it; truncating back removes any
		// partial bytes.
		mark := len(dst)
		dst = append(dst, `,"repr":`...)
		if rd, rerr := codec.AppendDistribution(dst, d); rerr == nil {
			dst = rd
		} else {
			dst = dst[:mark]
		}
	}
	if info != nil {
		dst = append(dst, `,"mean_interval":`...)
		if dst, err = appendInterval(dst, info.Mean, lv); err != nil {
			return dst, err
		}
		dst = append(dst, `,"variance_interval":`...)
		if dst, err = appendInterval(dst, info.Variance, lv); err != nil {
			return dst, err
		}
		if info.WindowMedian != nil {
			dst = append(dst, `,"window_median":`...)
			if dst, err = appendInterval(dst, *info.WindowMedian, lv); err != nil {
				return dst, err
			}
		}
		if len(info.Bins) > 0 {
			dst = append(dst, `,"bins":[`...)
			for i, b := range info.Bins {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, `{"lo":`...)
				if dst, err = codec.AppendFloat(dst, b.Lo); err != nil {
					return dst, err
				}
				dst = append(dst, `,"hi":`...)
				if dst, err = codec.AppendFloat(dst, b.Hi); err != nil {
					return dst, err
				}
				dst = append(dst, `,"estimate":`...)
				if dst, err = codec.AppendFloat(dst, b.Estimate); err != nil {
					return dst, err
				}
				dst = append(dst, `,"interval":`...)
				if dst, err = appendInterval(dst, b.Interval, lv); err != nil {
					return dst, err
				}
				dst = append(dst, '}')
			}
			dst = append(dst, ']')
		}
	}
	return append(dst, '}'), nil
}

// reuseShortest appends v as strconv's shortest 'g' form, which d.String()
// prints, given dst[lo:hi] holds v's JSON form (codec.AppendFloat). When v
// is 0 or 1e-4 ≤ |v| < 1e6 the two are the same bytes — both lay out the
// shortest digits as %f — and they are copied; elsewhere 'g' switches to an
// exponent that JSON does not, and v is formatted again.
func reuseShortest(dst []byte, v float64, lo, hi int) []byte {
	if a := math.Abs(v); a == 0 || (a >= 1e-4 && a < 1e6) {
		return append(dst, dst[lo:hi]...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// levelMemo is the last interval level a body formatted: its bits, and
// where in the body its bytes are. Bodies repeat one level (the query's
// confidence level), so appendInterval formats it once and copies it after.
type levelMemo struct {
	bits   uint64
	lo, hi int // hi == 0: no level yet
}

// appendInterval appends an IntervalJSON object.
func appendInterval(dst []byte, iv accuracy.Interval, lv *levelMemo) ([]byte, error) {
	var err error
	dst = append(dst, `{"lo":`...)
	if dst, err = codec.AppendFloat(dst, iv.Lo); err != nil {
		return dst, err
	}
	dst = append(dst, `,"hi":`...)
	if dst, err = codec.AppendFloat(dst, iv.Hi); err != nil {
		return dst, err
	}
	dst = append(dst, `,"level":`...)
	if bits := math.Float64bits(iv.Level); lv.hi != 0 && bits == lv.bits {
		dst = append(dst, dst[lv.lo:lv.hi]...)
	} else {
		lo := len(dst)
		if dst, err = codec.AppendFloat(dst, iv.Level); err != nil {
			return dst, err
		}
		*lv = levelMemo{bits: bits, lo: lo, hi: len(dst)}
	}
	return append(dst, '}'), nil
}

// appendDistString appends the JSON-quoted human-readable summary for d —
// the strconv replication of d.String() for a histogram (its summary
// contains no JSON-escapable bytes), falling back to the String method
// otherwise. appendFieldJSON writes Point and Normal summaries itself.
func appendDistString(dst []byte, d dist.Distribution) []byte {
	if v, ok := d.(*dist.Histogram); ok {
		dst = append(dst, `"Histogram{`...)
		dst = strconv.AppendInt(dst, int64(v.NumBuckets()), 10)
		dst = append(dst, ` buckets on [`...)
		dst = strconv.AppendFloat(dst, v.Edges[0], 'g', -1, 64)
		dst = append(dst, `, `...)
		dst = strconv.AppendFloat(dst, v.Edges[len(v.Edges)-1], 'g', -1, 64)
		dst = append(dst, ']')
		if sn := v.SampleSize(); sn > 0 {
			dst = append(dst, `, n=`...)
			dst = strconv.AppendInt(dst, int64(sn), 10)
		}
		return append(dst, '}', '"')
	}
	return codec.AppendString(dst, d.String())
}

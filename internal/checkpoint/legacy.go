package checkpoint

import (
	"encoding/json"
	"fmt"

	"repro/internal/codec"
	"repro/internal/randvar"
	"repro/internal/stream"
)

// rowWindow is a window in the row form that legacyVersion checkpoints
// hold join sides in, and every window written before aggregate windows
// were columnar: tuples oldest-first, their fields codec JSON. Nothing
// writes it any more.
type rowWindow struct {
	Tuples []struct {
		Fields []json.RawMessage `json:"fields"`
		Prob   float64           `json:"prob"`
		ProbN  int               `json:"prob_n"`
		Seq    uint64            `json:"seq"`
		Time   int64             `json:"time"`
	} `json:"tuples"`
}

// decodeRows reads the row-form windows of a legacyVersion payload into
// snap in the columnar form: the ungrouped window ("window"), each group's
// ("groups[].window") and both join sides ("join_left", "join_right"). A
// window the payload also holds in columns keeps those.
func decodeRows(payload []byte, snap *Snapshot) error {
	var legacy struct {
		Queries []struct {
			Window *rowWindow `json:"window"`
			Groups []struct {
				Window *rowWindow `json:"window"`
			} `json:"groups"`
			JoinLeft  *rowWindow `json:"join_left"`
			JoinRight *rowWindow `json:"join_right"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(payload, &legacy); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	type target struct {
		rows *rowWindow
		dst  **stream.ColumnWindowState
	}
	for i, lq := range legacy.Queries {
		qs := &snap.Queries[i]
		windows := []target{{lq.Window, &qs.ColWindow}, {lq.JoinLeft, &qs.JoinLeft}, {lq.JoinRight, &qs.JoinRight}}
		for j, g := range lq.Groups {
			windows = append(windows, target{g.Window, &qs.Groups[j].ColWindow})
		}
		for _, w := range windows {
			if w.rows == nil || *w.dst != nil {
				continue
			}
			cs, err := w.rows.state()
			if err != nil {
				return fmt.Errorf("checkpoint: query %s: %w", qs.ID, err)
			}
			*w.dst = cs
		}
	}
	return nil
}

// state converts the rows to the columnar form; schema checks wait for
// the restore.
func (rw *rowWindow) state() (*stream.ColumnWindowState, error) {
	tuples := make([]*stream.Tuple, len(rw.Tuples))
	for i, t := range rw.Tuples {
		fields := make([]randvar.Field, len(t.Fields))
		for j, raw := range t.Fields {
			f, err := codec.DecodeField(raw)
			if err != nil {
				return nil, err
			}
			fields[j] = f
		}
		tuples[i] = &stream.Tuple{Fields: fields, Prob: t.Prob, ProbN: t.ProbN, Seq: t.Seq, Time: t.Time}
	}
	return stream.TuplesState(tuples)
}

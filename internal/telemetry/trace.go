package telemetry

import (
	"encoding/json"
	"io"

	"repro/internal/ipv6"
)

// traceDoc is the JSON shape of a trace dump: every span stream's
// retained spans plus the captured anomaly exemplars.
type traceDoc struct {
	Spans     []streamTrace  `json:"spans"`
	Exemplars []exemplarJSON `json:"exemplars"`
}

type streamTrace struct {
	Stream   int        `json:"stream"`
	Recorded uint64     `json:"recorded"`
	Spans    []spanJSON `json:"spans"`
}

type exemplarJSON struct {
	Kind   string     `json:"kind"`
	Clock  uint64     `json:"clock"`
	Addr   string     `json:"addr,omitempty"`
	Stream int        `json:"stream"`
	Spans  []spanJSON `json:"spans"`
}

// DumpTrace writes the attached span tracer's event log — every
// stream's retained spans and the captured anomaly exemplars — as one
// indented JSON document (empty lists when no tracer is attached).
func (r *Registry) DumpTrace(w io.Writer) error {
	doc := traceDoc{Spans: []streamTrace{}, Exemplars: []exemplarJSON{}}
	if t := r.Tracer(); t != nil {
		var scratch []Span
		for i := 0; i < t.Streams(); i++ {
			ring := t.stream(i)
			st := streamTrace{Stream: i, Recorded: ring.Recorded(), Spans: []spanJSON{}}
			scratch = ring.AppendSpans(scratch[:0])
			for _, sp := range scratch {
				st.Spans = append(st.Spans, spanToJSON(i, sp))
			}
			doc.Spans = append(doc.Spans, st)
		}
		for _, ex := range t.Exemplars() {
			ej := exemplarJSON{
				Kind: ex.Kind.String(), Clock: ex.Clock, Stream: ex.Stream,
				Spans: []spanJSON{},
			}
			if ex.Addr != ([16]byte{}) {
				ej.Addr = ipv6.AddrFromBytes(ex.Addr[:]).String()
			}
			for _, sp := range ex.Spans[:ex.N] {
				ej.Spans = append(ej.Spans, spanToJSON(ex.Stream, sp))
			}
			doc.Exemplars = append(doc.Exemplars, ej)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

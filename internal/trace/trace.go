package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/simnet"
)

// Timeline is a set of trace entries plus the horizon they cover.
type Timeline struct {
	Entries  []simnet.TraceEntry
	Makespan float64
}

// New builds a Timeline from a simulation result.
func New(r simnet.Result) *Timeline {
	return &Timeline{Entries: r.Trace, Makespan: r.Makespan}
}

// Resources returns the distinct resource names sorted lexicographically —
// a deterministic order for identical entry sets, independent of appearance
// order. Note the sort is plain string ordering, so "cpu10" precedes "cpu2";
// every renderer in this package keys rows by name, and the obs package owns
// numerically-aware ordering. Locked by TestResourcesLexicographic.
func (t *Timeline) Resources() []string {
	seen := map[string]bool{}
	var names []string
	for _, e := range t.Entries {
		if !seen[e.Resource] {
			seen[e.Resource] = true
			names = append(names, e.Resource)
		}
	}
	sort.Strings(names)
	return names
}

// classify maps an activity label to a single Gantt glyph.
func classify(label string) byte {
	switch {
	case strings.HasPrefix(label, "compute"):
		return 'C'
	case strings.HasPrefix(label, "isend"), strings.HasPrefix(label, "send"):
		return 'S'
	case strings.HasPrefix(label, "irecv"), strings.HasPrefix(label, "recv"):
		return 'R'
	case strings.HasPrefix(label, "wire"):
		return 'w'
	case strings.HasPrefix(label, "kcopy"):
		return 'k'
	default:
		return '#'
	}
}

// Gantt writes an ASCII Gantt chart of the timeline, one row per resource,
// `width` columns spanning [0, Makespan]. Legend: C compute, S send-side
// CPU, R receive-side CPU, w wire, k kernel copy, '.' idle.
func (t *Timeline) Gantt(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	if t.Makespan <= 0 {
		_, err := fmt.Fprintln(w, "(empty timeline)")
		return err
	}
	names := t.Resources()
	rows := make(map[string][]byte, len(names))
	for _, n := range names {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		rows[n] = row
	}
	scale := float64(width) / t.Makespan
	for _, e := range t.Entries {
		row := rows[e.Resource]
		lo := int(e.Start * scale)
		hi := int(e.End * scale)
		if hi >= width {
			hi = width - 1
		}
		if lo > hi {
			lo = hi
		}
		g := classify(e.Label)
		for i := lo; i <= hi; i++ {
			row[i] = g
		}
	}
	maxName := 0
	for _, n := range names {
		if len(n) > maxName {
			maxName = len(n)
		}
	}
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", maxName, n, rows[n]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s  0%*s\n", maxName, "", width-1, fmt.Sprintf("%.4gs", t.Makespan))
	return err
}

// svgPalette maps Gantt glyphs to fill colors.
var svgPalette = map[byte]string{
	'C': "#4878d0", // compute
	'S': "#ee854a", // send-side CPU
	'R': "#6acc64", // recv-side CPU
	'w': "#d65f5f", // wire
	'k': "#956cb4", // kernel copy
	'#': "#8c8c8c",
}

// SVG writes the timeline as a standalone SVG document: one row per
// resource, activities as colored rectangles. width is the drawing width in
// pixels (rows are 22 px tall).
func (t *Timeline) SVG(w io.Writer, width int) error {
	if width < 100 {
		width = 100
	}
	names := t.Resources()
	const rowH, labelW, pad = 22, 90, 4
	height := len(names)*rowH + 30
	if _, err := fmt.Fprintf(w,
		"<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" font-family=\"monospace\" font-size=\"11\">\n",
		width+labelW+2*pad, height); err != nil {
		return err
	}
	row := make(map[string]int, len(names))
	for i, n := range names {
		row[n] = i
		fmt.Fprintf(w, "  <text x=\"%d\" y=\"%d\">%s</text>\n", pad, i*rowH+15, n)
		fmt.Fprintf(w, "  <rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"#f5f5f5\"/>\n",
			labelW, i*rowH+2, width, rowH-4)
	}
	if t.Makespan > 0 {
		scale := float64(width) / t.Makespan
		for _, e := range t.Entries {
			x := labelW + int(e.Start*scale)
			wd := int((e.End - e.Start) * scale)
			if wd < 1 {
				wd = 1
			}
			fmt.Fprintf(w, "  <rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\"><title>%s [%.6g, %.6g]</title></rect>\n",
				x, row[e.Resource]*rowH+2, wd, rowH-4, svgPalette[classify(e.Label)], e.Label, e.Start, e.End)
		}
	}
	fmt.Fprintf(w, "  <text x=\"%d\" y=\"%d\">0 .. %.6gs</text>\n", labelW, len(names)*rowH+20, t.Makespan)
	_, err := fmt.Fprintln(w, "</svg>")
	return err
}

// ChromeTrace writes the timeline in the Chrome/Perfetto trace-event JSON
// format (one complete-event per activity, one "thread" per resource), so a
// simulated schedule can be inspected interactively in ui.perfetto.dev or
// chrome://tracing. Timestamps are emitted in microseconds.
func (t *Timeline) ChromeTrace(w io.Writer) error {
	names := t.Resources()
	tid := make(map[string]int, len(names))
	for i, n := range names {
		tid[n] = i + 1
	}
	if _, err := fmt.Fprint(w, "["); err != nil {
		return err
	}
	// Thread-name metadata events.
	for i, n := range names {
		if i > 0 {
			if _, err := fmt.Fprint(w, ","); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w,
			`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`,
			tid[n], n); err != nil {
			return err
		}
	}
	for _, e := range t.Entries {
		if _, err := fmt.Fprintf(w,
			`,{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f}`,
			e.Label, tid[e.Resource], e.Start*1e6, (e.End-e.Start)*1e6); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "]")
	return err
}

package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/simnet"
)

func sampleTimeline() *Timeline {
	return &Timeline{
		Makespan: 10,
		Entries: []simnet.TraceEntry{
			{Resource: "cpu0", Label: "compute(0, 0)", Start: 0, End: 4},
			{Resource: "cpu0", Label: "isend(0, 0)->(1, 0)", Start: 4, End: 5},
			{Resource: "comm0", Label: "wire-tx(0, 0)->(1, 0)", Start: 5, End: 7},
			{Resource: "cpu1", Label: "recv(1, 0)<-(0, 0)", Start: 7, End: 8},
			{Resource: "cpu1", Label: "compute(1, 0)", Start: 8, End: 10},
		},
	}
}

func TestResources(t *testing.T) {
	tl := sampleTimeline()
	got := tl.Resources()
	want := []string{"comm0", "cpu0", "cpu1"}
	if len(got) != len(want) {
		t.Fatalf("resources = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("resources[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestResourcesLexicographic locks the documented ordering contract: plain
// string sort, independent of first-appearance order, with multi-digit names
// ordered lexicographically ("cpu10" before "cpu2").
func TestResourcesLexicographic(t *testing.T) {
	tl := &Timeline{Entries: []simnet.TraceEntry{
		{Resource: "cpu2", Start: 0, End: 1},
		{Resource: "cpu10", Start: 0, End: 1},
		{Resource: "bus", Start: 1, End: 2},
		{Resource: "cpu2", Start: 1, End: 2},
	}}
	got := tl.Resources()
	want := []string{"bus", "cpu10", "cpu2"}
	if len(got) != len(want) {
		t.Fatalf("resources = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("resources[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestGanttRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTimeline().Gantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // 3 resources + axis
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "C") || !strings.Contains(lines[1], "S") {
		t.Errorf("cpu0 row missing compute/send glyphs: %s", lines[1])
	}
	if !strings.Contains(lines[0], "w") {
		t.Errorf("comm0 row missing wire glyph: %s", lines[0])
	}
	if !strings.Contains(lines[2], "R") {
		t.Errorf("cpu1 row missing recv glyph: %s", lines[2])
	}
	if !strings.Contains(out, "10s") {
		t.Errorf("axis missing makespan: %s", lines[3])
	}
}

func TestGanttEmptyTimeline(t *testing.T) {
	var buf bytes.Buffer
	tl := &Timeline{}
	if err := tl.Gantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Error("empty timeline not reported")
	}
}

func TestGanttNarrowWidthClamped(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTimeline().Gantt(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output for narrow width")
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]byte{
		"compute(0)": 'C', "isendX": 'S', "sendY": 'S',
		"irecvZ": 'R', "recvW": 'R', "wire-tx": 'w', "kcopy-rx": 'k', "other": '#',
	}
	for label, want := range cases {
		if got := classify(label); got != want {
			t.Errorf("classify(%q) = %c, want %c", label, got, want)
		}
	}
}

func TestSVG(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTimeline().SVG(&buf, 400); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "cpu0", "comm0", "<rect", "compute(0, 0)"} {
		if !strings.Contains(out, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	// One background rect per resource plus one rect per entry.
	if got := strings.Count(out, "<rect"); got != 3+5 {
		t.Errorf("rect count = %d, want 8", got)
	}
	// Narrow width is clamped without error.
	buf.Reset()
	if err := sampleTimeline().SVG(&buf, 1); err != nil {
		t.Fatal(err)
	}
	// Empty timeline renders a valid document.
	buf.Reset()
	if err := (&Timeline{}).SVG(&buf, 200); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "</svg>") {
		t.Error("empty timeline svg invalid")
	}
}

func TestChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTimeline().ChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 3 metadata events + 5 activities.
	if len(events) != 8 {
		t.Fatalf("got %d events, want 8", len(events))
	}
	var completes int
	for _, e := range events {
		if e["ph"] == "X" {
			completes++
			if e["dur"].(float64) <= 0 {
				t.Errorf("non-positive duration in %v", e)
			}
		}
	}
	if completes != 5 {
		t.Errorf("got %d complete events, want 5", completes)
	}
}

// Package trace renders simulation timelines in several formats: ASCII Gantt
// charts and standalone SVG documents for quick inspection, and the
// Chrome/Perfetto trace-event JSON format for interactive exploration
// (ChromeTrace; `tilebench trace` is the CLI entry point). All
// of them visualize the receive/compute/send structure of the two schedules
// (the paper's Figs. 1 and 2); aggregate phase accounting — overlap
// efficiency, per-resource busy/idle — lives in internal/obs.
package trace

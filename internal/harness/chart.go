package harness

import (
	"io"

	"github.com/ilan-sched/ilan/internal/textchart"
)

// The charts below draw a matrix whose cells their experiment's Report
// has checked.

// speedupChart returns a chart of each kind's speedup vs the baseline,
// one series per kind.
func speedupChart(title string, kinds ...Kind) func(io.Writer, *Matrix) error {
	return func(w io.Writer, m *Matrix) error {
		c := &textchart.Chart{Title: title, Rows: m.Benches, Reference: 1, Unit: "x"}
		for _, k := range kinds {
			s := textchart.Series{Label: k.String()}
			for _, b := range m.Benches {
				s.Values = append(s.Values, m.Speedup(b, k))
			}
			c.Series = append(c.Series, s)
		}
		return c.Render(w)
	}
}

func chartThreads(w io.Writer, m *Matrix) error {
	c := &textchart.Chart{
		Title: "Figure 3: weighted average threads selected by ILAN",
		Rows:  m.Benches,
		Unit:  " threads",
	}
	s := textchart.Series{Label: "ilan"}
	for _, b := range m.Benches {
		s.Values = append(s.Values, m.Cell(b, KindILAN).MeanThreads())
	}
	c.Series = []textchart.Series{s}
	return c.Render(w)
}

func chartOverhead(w io.Writer, m *Matrix) error {
	c := &textchart.Chart{
		Title:     "Figure 5: scheduling overhead vs baseline (lower is better)",
		Rows:      m.Benches,
		Reference: 1,
		Unit:      "x",
	}
	s := textchart.Series{Label: "ilan"}
	for _, b := range m.Benches {
		s.Values = append(s.Values, m.OverheadRatio(b, KindILAN))
	}
	c.Series = []textchart.Series{s}
	return c.Render(w)
}

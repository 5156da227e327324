package report

import (
	"fmt"
	"math"
	"strings"

	"warpsched/internal/exp"
)

// The figures are self-contained SVGs following the repo's chart rules:
// categorical hues assigned in fixed palette order (never cycled), thin
// bars with a 2px surface gap, one y axis, recessive hairline grid,
// text in ink tokens (never the series color), a legend whenever two or
// more series share a plot, native <title> tooltips on every mark, and
// a dark variant selected via prefers-color-scheme rather than derived
// by inversion. Coordinates are emitted at fixed precision so output is
// byte-identical across runs and platforms.

// svgSeries is one legend entry of a grouped bar chart: a palette slot
// plus one value per group. Tinted series render at reduced opacity —
// the baseline member of a baseline/+BOWS pair shares its hue with the
// solid treatment series.
type svgSeries struct {
	label string
	slot  int // palette slot index
	tint  bool
	vals  []exp.Bar
}

// palette is the validated categorical palette, light and dark steps.
var palette = []struct{ light, dark string }{
	{"#2a78d6", "#3987e5"}, // blue
	{"#eb6834", "#d95926"}, // orange
	{"#1baf7a", "#199e70"}, // aqua
	{"#eda100", "#c98500"}, // yellow
	{"#e87ba4", "#d55181"}, // magenta
}

func c1(v float64) string { return fmt.Sprintf("%.1f", v) }

// svgStyle emits the chart's CSS: ink/surface/series tokens for both
// color schemes. Text wears ink tokens; only marks wear series colors.
func svgStyle(slots []int) string {
	var sb strings.Builder
	sb.WriteString("<style>\n")
	sb.WriteString("  svg{color-scheme:light dark;font-family:system-ui,-apple-system,\"Segoe UI\",sans-serif}\n")
	sb.WriteString("  .surface{fill:#fcfcfb}.ink{fill:#0b0b0b}.ink2{fill:#52514e}.muted{fill:#898781}\n")
	sb.WriteString("  .grid{stroke:#e1e0d9}.axis{stroke:#c3c2b7}\n")
	for _, s := range slots {
		fmt.Fprintf(&sb, "  .s%d{fill:%s}\n", s, palette[s].light)
	}
	sb.WriteString("  @media (prefers-color-scheme:dark){\n")
	sb.WriteString("    .surface{fill:#1a1a19}.ink{fill:#ffffff}.ink2{fill:#c3c2b7}\n")
	sb.WriteString("    .grid{stroke:#2c2c2a}.axis{stroke:#383835}\n")
	for _, s := range slots {
		fmt.Fprintf(&sb, "    .s%d{fill:%s}\n", s, palette[s].dark)
	}
	sb.WriteString("  }\n</style>\n")
	return sb.String()
}

// niceMax rounds v up to a tidy axis maximum.
func niceMax(v float64) float64 {
	if v <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(v)))
	for _, m := range []float64{1, 1.2, 1.5, 2, 2.5, 3, 4, 5, 6, 8, 10} {
		if m*mag >= v {
			return m * mag
		}
	}
	return 10 * mag
}

// groupedBars renders a grouped bar chart: one group per label, one bar
// per series inside each group.
func groupedBars(title, yLabel string, groups []string, series []svgSeries) []byte {
	const (
		barW     = 9
		barGap   = 2 // surface gap between adjacent bars
		groupGap = 16
		plotH    = 190
		marginL  = 44
		marginR  = 12
		marginT  = 56 // title + legend
		marginB  = 30
	)
	groupW := len(series)*(barW+barGap) - barGap
	plotW := len(groups)*(groupW+groupGap) + groupGap
	w := marginL + plotW + marginR
	h := marginT + plotH + marginB

	var ymax float64
	for _, s := range series {
		for _, b := range s.vals {
			if b.Value > ymax {
				ymax = b.Value
			}
		}
	}
	ymax = niceMax(ymax)
	y := func(v float64) float64 { return float64(marginT+plotH) - v/ymax*plotH }

	slotSet := map[int]bool{}
	var slots []int
	for _, s := range series {
		if !slotSet[s.slot] {
			slotSet[s.slot] = true
			slots = append(slots, s.slot)
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\" role=\"img\" aria-label=\"%s\">\n",
		w, h, w, h, xmlEscape(title))
	sb.WriteString(svgStyle(slots))
	fmt.Fprintf(&sb, "<rect class=\"surface\" width=\"%d\" height=\"%d\"/>\n", w, h)
	fmt.Fprintf(&sb, "<text class=\"ink\" x=\"%d\" y=\"16\" font-size=\"12\" font-weight=\"600\">%s</text>\n", marginL, xmlEscape(title))

	// Legend: one swatch per series (tint rendered as in the plot).
	lx := marginL
	for _, s := range series {
		op := ""
		if s.tint {
			op = " fill-opacity=\"0.35\""
		}
		fmt.Fprintf(&sb, "<rect class=\"s%d\"%s x=\"%d\" y=\"26\" width=\"9\" height=\"9\" rx=\"2\"/>\n", s.slot, op, lx)
		fmt.Fprintf(&sb, "<text class=\"ink2\" x=\"%d\" y=\"34\" font-size=\"10\">%s</text>\n", lx+13, xmlEscape(s.label))
		lx += 13 + 7*len(s.label) + 14
	}

	// Grid + y axis ticks at quarters.
	for i := 0; i <= 4; i++ {
		v := ymax * float64(i) / 4
		yy := y(v)
		fmt.Fprintf(&sb, "<line class=\"grid\" x1=\"%d\" y1=\"%s\" x2=\"%d\" y2=\"%s\" stroke-width=\"1\"/>\n",
			marginL, c1(yy), marginL+plotW, c1(yy))
		fmt.Fprintf(&sb, "<text class=\"muted\" x=\"%d\" y=\"%s\" font-size=\"9\" text-anchor=\"end\">%s</text>\n",
			marginL-6, c1(yy+3), c1(v))
	}
	if yLabel != "" {
		fmt.Fprintf(&sb, "<text class=\"ink2\" x=\"%d\" y=\"%d\" font-size=\"9\" transform=\"rotate(-90 12 %d)\" text-anchor=\"middle\">%s</text>\n",
			12, marginT+plotH/2, marginT+plotH/2, xmlEscape(yLabel))
	}

	// Bars.
	for gi, g := range groups {
		gx := marginL + groupGap + gi*(groupW+groupGap)
		for si, s := range series {
			b := s.vals[gi]
			x := gx + si*(barW+barGap)
			top := y(b.Value)
			op := ""
			if s.tint {
				op = " fill-opacity=\"0.35\""
			}
			fmt.Fprintf(&sb, "<rect class=\"s%d\"%s x=\"%d\" y=\"%s\" width=\"%d\" height=\"%s\" rx=\"2\"><title>%s · %s: %s</title></rect>\n",
				s.slot, op, x, c1(top), barW, c1(float64(marginT+plotH)-top),
				xmlEscape(g), xmlEscape(s.label), b)
			if b.LowerBound {
				fmt.Fprintf(&sb, "<text class=\"muted\" x=\"%s\" y=\"%s\" font-size=\"8\" text-anchor=\"middle\">≥</text>\n",
					c1(float64(x)+float64(barW)/2), c1(top-3))
			}
		}
		fmt.Fprintf(&sb, "<text class=\"ink2\" x=\"%s\" y=\"%d\" font-size=\"10\" text-anchor=\"middle\">%s</text>\n",
			c1(float64(gx)+float64(groupW)/2), marginT+plotH+16, xmlEscape(g))
	}
	// Baseline axis on top of the bars' feet.
	fmt.Fprintf(&sb, "<line class=\"axis\" x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke-width=\"1\"/>\n",
		marginL, marginT+plotH, marginL+plotW, marginT+plotH)
	sb.WriteString("</svg>\n")
	return []byte(sb.String())
}

// lineChart renders a single-series line over categorical x labels (no
// legend: the title names the series).
func lineChart(title, yLabel string, xs []string, ys []float64) []byte {
	const (
		stepW   = 74
		plotH   = 170
		marginL = 44
		marginR = 16
		marginT = 34
		marginB = 34
	)
	plotW := stepW * (len(xs) - 1)
	w := marginL + plotW + marginR
	h := marginT + plotH + marginB

	var ymax float64
	for _, v := range ys {
		if v > ymax {
			ymax = v
		}
	}
	ymax = niceMax(ymax)
	y := func(v float64) float64 { return float64(marginT+plotH) - v/ymax*plotH }
	x := func(i int) float64 { return float64(marginL + i*stepW) }

	var sb strings.Builder
	fmt.Fprintf(&sb, "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\" role=\"img\" aria-label=\"%s\">\n",
		w, h, w, h, xmlEscape(title))
	sb.WriteString(svgStyle([]int{0}))
	fmt.Fprintf(&sb, "<rect class=\"surface\" width=\"%d\" height=\"%d\"/>\n", w, h)
	fmt.Fprintf(&sb, "<text class=\"ink\" x=\"%d\" y=\"16\" font-size=\"12\" font-weight=\"600\">%s</text>\n", marginL, xmlEscape(title))
	for i := 0; i <= 4; i++ {
		v := ymax * float64(i) / 4
		yy := y(v)
		fmt.Fprintf(&sb, "<line class=\"grid\" x1=\"%d\" y1=\"%s\" x2=\"%d\" y2=\"%s\" stroke-width=\"1\"/>\n",
			marginL, c1(yy), marginL+plotW, c1(yy))
		fmt.Fprintf(&sb, "<text class=\"muted\" x=\"%d\" y=\"%s\" font-size=\"9\" text-anchor=\"end\">%s</text>\n",
			marginL-6, c1(yy+3), c1(v))
	}
	if yLabel != "" {
		fmt.Fprintf(&sb, "<text class=\"ink2\" x=\"12\" y=\"%d\" font-size=\"9\" transform=\"rotate(-90 12 %d)\" text-anchor=\"middle\">%s</text>\n",
			marginT+plotH/2, marginT+plotH/2, xmlEscape(yLabel))
	}
	var pts []string
	for i, v := range ys {
		pts = append(pts, c1(x(i))+","+c1(y(v)))
	}
	// The polyline wears the series color via stroke; class fill is
	// reused for the markers.
	fmt.Fprintf(&sb, "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"2\"/>\n",
		strings.Join(pts, " "), palette[0].light)
	for i, v := range ys {
		val := fmt.Sprintf("%.2f", v)
		fmt.Fprintf(&sb, "<circle class=\"s0\" cx=\"%s\" cy=\"%s\" r=\"4\"><title>%s: %s</title></circle>\n",
			c1(x(i)), c1(y(v)), xmlEscape(xs[i]), val)
		fmt.Fprintf(&sb, "<text class=\"ink2\" x=\"%s\" y=\"%d\" font-size=\"10\" text-anchor=\"middle\">%s</text>\n",
			c1(x(i)), marginT+plotH+16, xmlEscape(xs[i]))
		fmt.Fprintf(&sb, "<text class=\"ink2\" x=\"%s\" y=\"%s\" font-size=\"9\" text-anchor=\"middle\">%s</text>\n",
			c1(x(i)), c1(y(v)-8), val)
	}
	fmt.Fprintf(&sb, "<line class=\"axis\" x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke-width=\"1\"/>\n",
		marginL, marginT+plotH, marginL+plotW, marginT+plotH)
	sb.WriteString("</svg>\n")
	return []byte(sb.String())
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\"", "&quot;")
	return r.Replace(s)
}

// figures renders every SVG the document references, keyed by base name.
func (r *Report) figures() map[string][]byte {
	out := map[string][]byte{}
	for _, s := range []*exp.BarsSection{r.Fig9, r.Fig15} {
		if s == nil {
			continue
		}
		out[s.Exp+"-time.svg"] = barsSVG(s, s.Time, s.GmeanTime,
			fmt.Sprintf("%s: execution time on %s (normalized to LRR)", s.Exp, s.GPU))
		out[s.Exp+"-energy.svg"] = barsSVG(s, s.Energy, s.GmeanEnergy,
			fmt.Sprintf("%s: dynamic energy on %s (normalized to LRR)", s.Exp, s.GPU))
	}
	if s := r.Delay; s != nil {
		out["delaysweep-time.svg"] = lineChart(
			"Delay-limit sweep: gmean execution time (GTO = 1)",
			"normalized time", s.Columns, s.GmeanTime)
	}
	if s := r.Fig14; s != nil {
		groups := append(append([]string{}, s.Kernels...), "gmean")
		xor := svgSeries{label: "XOR+BOWS(5000)", slot: 0}
		mod := svgSeries{label: "MODULO+BOWS(5000)", slot: 1}
		for _, k := range s.Kernels {
			xor.vals = append(xor.vals, s.XOR[k])
			mod.vals = append(mod.vals, s.MOD[k])
		}
		xor.vals = append(xor.vals, exp.Bar{Value: s.GmeanXOR})
		mod.vals = append(mod.vals, exp.Bar{Value: s.GmeanMOD})
		out["fig14.svg"] = groupedBars("fig14: detection-error overhead (GTO = 1)",
			"normalized time", groups, []svgSeries{xor, mod})
	}
	if s := r.Ablation; s != nil {
		groups := append(append([]string{}, s.Kernels...), "gmean")
		var series []svgSeries
		for ci, col := range s.Columns {
			sv := svgSeries{label: col, slot: ci % len(palette)}
			for _, k := range s.Kernels {
				sv.vals = append(sv.vals, s.Time[k][ci])
			}
			sv.vals = append(sv.vals, exp.Bar{Value: s.Gmean[ci]})
			series = append(series, sv)
		}
		out["ablation.svg"] = groupedBars("Ablation: BOWS components (GTO = 1)",
			"normalized time", groups, series)
	}
	return out
}

// barsSVG renders one normalized-bars panel (Figure 9/15):
// per-kernel groups plus a gmean group, scheduler hue
// carried by the pair, baseline tinted and +BOWS solid.
func barsSVG(s *exp.BarsSection, data map[string][]exp.Bar, gmean []float64, title string) []byte {
	groups := append(append([]string{}, s.Kernels...), "gmean")
	var series []svgSeries
	for ci, col := range s.Columns {
		sv := svgSeries{label: col, slot: ci / 2, tint: ci%2 == 0}
		for _, k := range s.Kernels {
			sv.vals = append(sv.vals, data[k][ci])
		}
		sv.vals = append(sv.vals, exp.Bar{Value: gmean[ci]})
		series = append(series, sv)
	}
	return groupedBars(title, "normalized to "+s.Columns[0], groups, series)
}

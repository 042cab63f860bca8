package testu01

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/baselines"
)

// smallCrushPin is one generator's SmallCrush run, seeded 20120521
// (cmd/crush's default seed): the pass count, the tests that fail and
// every test's p-values, in battery order.
type smallCrushPin struct {
	gen     string
	passed  int
	failing []string
	pvalues [][]float64
}

// mt19937 passes every test, and glibc-rand32's stuck top bit fails
// ten, most on p-values of 1 and linear-complexity on extreme members,
// so both outcomes of Passed and the extreme-p rule are pinned.
var smallCrushPins = []smallCrushPin{
	{"mt19937", 15, nil, [][]float64{
		{0.9549561777},
		{0.2442609389, 0.4358069481, 0.4358069481, 0.8593747643},
		{0.6442191388},
		{0.7170572554},
		{0.9807241778},
		{0.5316089616, 0.3576543864},
		{0.1258986375},
		{0.8351683601},
		{0.1323121594},
		{0.6266178779},
		{0.5628112444},
		{0.126545409},
		{0.6324214921},
		{0.5654000531, 0.6935591883, 0.328984545, 0.2239422391, 0.1713908556, 0.1274725822, 0.794516239,
			0.8970483946, 0.7566919771, 0.328984545, 0.056923149, 0.5252145144, 0.2635446284},
		{0.4543383391, 0.9458531721, 0.1647759462, 0.3440342876, 0.5683055282, 0.5683055282, 0.6768224022, 0.1647759462},
	}},
	{"glibc-rand32", 5, []string{"birthday-spacings", "gap", "max-of-t", "weight-distrib", "matrix-rank",
		"hamming-weight", "hamming-indep", "random-walk", "longest-head-run", "linear-complexity"}, [][]float64{
		{1},
		{0.2442609389, 0.5762958942, 0.5061469715, 0.644101606},
		{1},
		{0.7203642499},
		{0.8221459526},
		{1, 1},
		{0.5592281832},
		{1},
		{1},
		{1},
		{1},
		{1},
		{1},
		{1, 8.979163924e-220, 8.979163924e-220, 8.979163924e-220, 8.979163924e-220, 8.979163924e-220, 8.979163924e-220,
			8.979163924e-220, 8.979163924e-220, 8.979163924e-220, 8.979163924e-220, 8.979163924e-220, 8.979163924e-220},
		{0.016914858, 0.6768224022, 0.5683055282, 0.7720458015, 0.1647759462, 0.2456485621, 0.4543383391, 0.4543383391},
	}},
}

// TestSmallCrushPinned holds SmallCrush's verdicts and p-values to
// those above, each to 10 significant digits, so the pins hold on
// every architecture the short suite runs on.
func TestSmallCrushPinned(t *testing.T) {
	for _, pin := range smallCrushPins {
		src, err := baselines.New(pin.gen, 20120521)
		if err != nil {
			t.Fatal(err)
		}
		out := SmallCrush().Run(pin.gen, src)
		if out.Passed != pin.passed || out.Total != len(pin.pvalues) {
			t.Errorf("%s: passed %d/%d, want %d/%d", pin.gen, out.Passed, out.Total, pin.passed, len(pin.pvalues))
		}
		var failing []string
		for _, r := range out.Results {
			if !r.Passed(0.001, 0.999) {
				failing = append(failing, r.Name)
			}
		}
		if !slices.Equal(failing, pin.failing) {
			t.Errorf("%s: failing %q, want %q", pin.gen, failing, pin.failing)
		}
		if len(out.Results) != len(pin.pvalues) {
			t.Fatalf("%s: %d results, want %d", pin.gen, len(out.Results), len(pin.pvalues))
		}
		for i, r := range out.Results {
			want := pin.pvalues[i]
			if len(r.PValues) != len(want) {
				t.Errorf("%s %s: %d p-values, want %d", pin.gen, r.Name, len(r.PValues), len(want))
				continue
			}
			for j, p := range r.PValues {
				if sig10(p) != sig10(want[j]) {
					t.Errorf("%s %s: p[%d] = %s, want %s", pin.gen, r.Name, j, sig10(p), sig10(want[j]))
				}
			}
		}
	}
}

func sig10(x float64) string { return strconv.FormatFloat(x, 'g', 10, 64) }

package diehard

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/baselines"
)

// batteryPin is one generator's DIEHARD run at scale 0.1, seeded
// 20120521 (cmd/dieharder's default seed): the pass count, the tests
// that fail, the closing KS D and every test's p-values, in menu
// order.
type batteryPin struct {
	gen     string
	passed  int
	failing []string
	ksD     float64
	pvalues [][]float64
}

// mt19937 fails two tests on the band alone, with no extreme p-value,
// and glibc-rand32's stuck top bit fails nine, most on p-values of 0
// or 1, so both outcomes of Passed and the extreme-p rule are pinned.
var batteryPins = []batteryPin{
	{"mt19937", 13, []string{"opso-oqso-dna", "minimum-distance"}, 0.2550725764, [][]float64{
		{0.7704430387, 0.5278981031, 0.5131370925, 0.2178713904, 0.8021292266, 0.07714392307},
		{0.8386638705},
		{0.05044913414, 0.647934403},
		{0.1483607818},
		{0.7544254992},
		{0.3882454902, 0.8500842567, 0.991930576, 0.6449658667, 0.6612336038, 0.6525090885, 0.6705766043, 0.92059092, 0.7574561367},
		{0.5625839794},
		{0.9477891675, 0.5244330498},
		{0.07198203539},
		{0.006762755784},
		{0.8561082302},
		{0.08441216828},
		{0.8722187121},
		{0.8384974547},
		{0.8944396644, 0.5686369446},
	}},
	{"glibc-rand32", 6, []string{"rank-31x31-32x32", "bitstream", "opso-oqso-dna", "count-the-1s-stream",
		"count-the-1s-bytes", "parking-lot", "minimum-distance", "squeeze", "overlapping-sums"}, 0.5074089694, [][]float64{
		{0.97260446, 0.5314369351, 0.9816406371, 0.9293657218, 0.9931000687, 0.5278981031},
		{0.6815130844},
		{1, 1},
		{0.9230407374},
		{1},
		{0.6910623287, 0.5625684819, 1, 0.4954974572, 0.1842139536, 1, 0.8622476791, 0.5825680419, 1},
		{0.9975606791},
		{1, 0.9752506611},
		{0},
		{0.9914884123},
		{0.8858243715},
		{1},
		{1},
		{0.3064247148},
		{0.9954499509, 0.5842268274},
	}},
}

// TestBatteryPinned holds the battery's verdicts and statistics to
// those above, each float to 10 significant digits, so the pins hold
// on every architecture the short suite runs on.
func TestBatteryPinned(t *testing.T) {
	for _, pin := range batteryPins {
		src, err := baselines.New(pin.gen, 20120521)
		if err != nil {
			t.Fatal(err)
		}
		out := RunBattery(pin.gen, src, Config{Scale: 0.1})
		if out.Passed != pin.passed || out.Total != len(pin.pvalues) {
			t.Errorf("%s: passed %d/%d, want %d/%d", pin.gen, out.Passed, out.Total, pin.passed, len(pin.pvalues))
		}
		var failing []string
		for _, r := range out.Results {
			if !r.Passed(0.01, 0.99) {
				failing = append(failing, r.Name)
			}
		}
		if !slices.Equal(failing, pin.failing) {
			t.Errorf("%s: failing %q, want %q", pin.gen, failing, pin.failing)
		}
		if got, want := sig10(out.KS.D), sig10(pin.ksD); got != want {
			t.Errorf("%s: KS D = %s, want %s", pin.gen, got, want)
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

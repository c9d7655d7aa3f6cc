package source

import (
	"fmt"
	"math"
	"testing"
)

// TestFormatParity pins the strconv field formatters to the fmt verbs
// they replaced, byte for byte, over the edge cases of both.
func TestFormatParity(t *testing.T) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
		0.00004, 0.00005, 0.00015, 0.12344999, 0.123456789, -0.123456789,
		1.005, 2.675, 3.14159265358979, 12.3456, -12.3456,
		1e6, 123456789.987654321, -98765.43215, 1e21, 1e300, -1e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		if got, want := formatScore(x), fmt.Sprintf("%.4f", x); got != want {
			t.Errorf("formatScore(%v) = %q, fmt %%.4f = %q", x, got, want)
		}
		if got, want := formatCPC(x), fmt.Sprintf("%.2f", x); got != want {
			t.Errorf("formatCPC(%v) = %q, fmt %%.2f = %q", x, got, want)
		}
	}
}

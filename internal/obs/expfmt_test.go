package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// The satellite edge cases for the exposition validator: names that would
// need escaping, empty histograms, and non-finite gauge values.

func TestValidateExpositionRejectsUnescapableNames(t *testing.T) {
	cases := map[string]string{
		"dash":          "bad-name 1\n",
		"dot":           "bad.name 1\n",
		"leading digit": "1bad 1\n",
		"space in name": "bad name{x=\"y\"} 1\n", // parses as name "bad", junk after
		"unicode":       "caf\xc3\xa9_total 1\n",
		"empty name":    " 1\n",
		"help bad name": "# HELP bad-name something\nok_total 1\n",
		"type bad name": "# TYPE bad-name counter\nok_total 1\n",
	}
	for name, in := range cases {
		if err := ValidateExposition([]byte(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
	// Colons are legal in metric names (recording-rule style).
	if err := ValidateExposition([]byte("job:rate5m 1\n")); err != nil {
		t.Errorf("rejected colon name: %v", err)
	}
}

func TestEmptyHistogramExposition(t *testing.T) {
	m := NewMetrics()
	m.NewHistogramFunc("idle_seconds", "Never observed.", (&SLOHistogram{}).Snapshot)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("empty histogram fails validation: %v\n%s", err, out)
	}
	for _, want := range []string{
		`idle_seconds_bucket{le="+Inf"} 0`,
		"idle_seconds_sum 0",
		"idle_seconds_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The flat view agrees: count and sum rows, both zero.
	samples := m.Samples()
	if len(samples) != 2 || samples[0].Value != 0 || samples[1].Value != 0 {
		t.Errorf("Samples() = %+v", samples)
	}
}

func TestNonFiniteGaugeFailsValidation(t *testing.T) {
	for name, v := range map[string]float64{
		"NaN":  math.NaN(),
		"+Inf": math.Inf(1),
		"-Inf": math.Inf(-1),
	} {
		m := NewMetrics()
		m.NewGauge("broken_ratio", "A gauge dividing by zero.", func() float64 { return v })
		var buf bytes.Buffer
		if err := m.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidateExposition(buf.Bytes()); err == nil {
			t.Errorf("%s gauge passed validation:\n%s", name, buf.String())
		}
	}
	// Histogram +Inf bucket bounds are label values, not sample values, and
	// must stay legal.
	if err := ValidateExposition([]byte("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1.5\nh_count 3\n")); err != nil {
		t.Errorf("le=\"+Inf\" label rejected: %v", err)
	}
}

package obs

import (
	"strings"
	"testing"
)

// TestLabelEscapingConformance pins the Prometheus text-format escaping
// rules: exactly backslash, double-quote and newline are escaped; other
// control characters and non-ASCII UTF-8 pass through verbatim. Go's %q
// would turn the tab into \t and the kanji into \u sequences — both
// undefined in the exposition format.
func TestLabelEscapingConformance(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{"\\\"\n", `\\\"\n`},
		{"tab\there", "tab\there"},
		{"héllo wörld", "héllo wörld"},
		{"日本語", "日本語"},
		{"mixed \\ \" \n 日本", `mixed \\ \" \n 日本`},
	}
	for _, c := range cases {
		if got := EscapeLabelValue(c.in); got != c.want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}

	// End to end: the rendered exposition carries the escaped value on one
	// line, and HELP text escapes backslash+newline (quotes legal there).
	r := NewRegistry()
	r.Counter("c_total", L("path", "a\\b\"c\nd"), L("utf8", "héllo")).Add(1)
	r.Help("c_total", "Line one\nline \\two \"quoted\".")
	text := r.Text()
	if !strings.Contains(text, `c_total{path="a\\b\"c\nd",utf8="héllo"} 1`) {
		t.Errorf("exposition label escaping wrong:\n%s", text)
	}
	if !strings.Contains(text, `# HELP c_total Line one\nline \\two "quoted".`) {
		t.Errorf("HELP escaping wrong:\n%s", text)
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Errorf("raw newline leaked into the exposition:\n%s", text)
		}
	}
}

func TestSummaryExposition(t *testing.T) {
	r := NewRegistry()
	sk := r.Sketch("lat", L("chain", "x"))
	for i := 0; i < 100; i++ {
		sk.Observe(2)
	}
	r.Sketch("lat_empty")
	text := r.Text()
	if !strings.Contains(text, "# TYPE lat summary") {
		t.Errorf("summary TYPE line missing:\n%s", text)
	}
	for _, q := range []string{"0.5", "0.9", "0.99", "0.999"} {
		if !strings.Contains(text, `lat{chain="x",quantile="`+q+`"}`) {
			t.Errorf("quantile %s line missing:\n%s", q, text)
		}
	}
	if !strings.Contains(text, `lat_sum{chain="x"} 200`) || !strings.Contains(text, `lat_count{chain="x"} 100`) {
		t.Errorf("summary _sum/_count wrong:\n%s", text)
	}
	if !strings.Contains(text, `lat_empty{quantile="0.5"} NaN`) {
		t.Errorf("empty summary should expose NaN quantiles:\n%s", text)
	}
}

func TestMergedSketchAcrossLabelSets(t *testing.T) {
	r := NewRegistry()
	r.Sketch("lat", L("shard", "0")).Observe(1)
	r.Sketch("lat", L("shard", "1")).Observe(100)
	merged, ok := r.Snapshot().MergedSketch("lat")
	if !ok || merged.Count != 2 {
		t.Fatalf("merged = %+v, %v; want both shards", merged, ok)
	}
	if merged.Min != 1 || merged.Max != 100 {
		t.Errorf("merged extremes = %v/%v, want 1/100", merged.Min, merged.Max)
	}
	if _, ok := r.Snapshot().MergedSketch("missing"); ok {
		t.Error("MergedSketch of an absent family reported ok")
	}
}

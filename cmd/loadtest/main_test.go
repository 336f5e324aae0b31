package main

import (
	"slices"
	"testing"
)

func TestParseCounts(t *testing.T) {
	for _, s := range []string{"", "1e2", "-5", "0", "30,", "30;100", "x"} {
		if counts, err := parseCounts(s); err == nil {
			t.Errorf("parseCounts(%q) = %v, want a usage error", s, counts)
		}
	}
	counts, err := parseCounts("30, 100")
	if err != nil || !slices.Equal(counts, []int{30, 100}) {
		t.Errorf(`parseCounts("30, 100") = %v, %v; want [30 100]`, counts, err)
	}
}

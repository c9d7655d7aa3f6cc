package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{ten, 50, 5},   // rank ceil(0.5*10) = 5
		{ten, 90, 9},   // rank 9: one sample beyond it
		{ten, 91, 10},  // rank ceil(9.1) = 10
		{ten, 99, 10},  // fewer than 100 samples: the maximum
		{ten, 100, 10}, // the maximum
		{ten, 1, 1},    // rank ceil(0.1) = 1
		{[]float64{7}, 99, 7},
		{nil, 50, 0},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.sorted, c.p, got, c.want)
		}
	}
	// 1 000 samples leave ten beyond the 99th percentile.
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	if got := percentile(thousand, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
}

package main

import (
	"reflect"
	"testing"
)

// TestSameSeedSameBytes: the generator, the query streams and the
// pacing schedule are functions of the seed and nothing else.
func TestSameSeedSameBytes(t *testing.T) {
	for _, name := range []string{"apps-fig2", "catalog-search"} {
		sp, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b, other := newInputs(sp, 7), newInputs(sp, 7), newInputs(sp, 8)

		bodyA, rowsA := a.words(streamItems).batch("S", 0, 50)
		bodyB, rowsB := b.words(streamItems).batch("S", 0, 50)
		bodyO, _ := other.words(streamItems).batch("S", 0, 50)
		if bodyA != bodyB || !reflect.DeepEqual(rowsA, rowsB) {
			t.Errorf("%s: two generators with one seed wrote different CSV", name)
		}
		if bodyA == bodyO {
			t.Errorf("%s: seeds 7 and 8 wrote the same CSV", name)
		}
		rewA, _ := a.words(streamWriter).rewrite(1000, 20)
		rewB, _ := b.words(streamWriter).rewrite(1000, 20)
		if rewA != rewB {
			t.Errorf("%s: two writers with one seed rewrote different rows", name)
		}

		if pa, pb := a.paths(streamPaced, 200), b.paths(streamPaced, 200); !reflect.DeepEqual(pa, pb) {
			t.Errorf("%s: two query streams with one seed differ", name)
		} else if reflect.DeepEqual(pa, other.paths(streamPaced, 200)) {
			t.Errorf("%s: seeds 7 and 8 ask the same queries", name)
		}
		c0, c1 := a.queries(streamSat, 0), a.queries(streamSat, 1)
		same := 0
		for i := 0; i < 50; i++ {
			if c0.next() == c1.next() {
				same++
			}
		}
		if same == 50 {
			t.Errorf("%s: two clients of one phase replay the same sequence", name)
		}
	}
	if !reflect.DeepEqual(schedule(streamRNG(7, streamSchedule), 100, 500), schedule(streamRNG(7, streamSchedule), 100, 500)) {
		t.Error("two schedules with one seed differ")
	}
	due := schedule(streamRNG(7, streamSchedule), 100, 5000)
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	if mean := due[len(due)-1].Seconds() / float64(len(due)); mean < 0.009 || mean > 0.011 {
		t.Errorf("mean gap at 100/s is %.4fs, want about 0.01", mean)
	}
}

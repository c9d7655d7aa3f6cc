package store

import (
	"sort"
	"strconv"
)

// FieldStats summarizes one column for the design interface: when a
// designer configures "how each [source] should be searched" and
// binds layout elements, the GUI shows what each field contains.
type FieldStats struct {
	Field string
	Type  FieldType
	// NonEmpty counts records with a value.
	NonEmpty int
	// Distinct counts unique values (capped at CapDistinct).
	Distinct int
	// TopValues holds up to 5 most frequent values with counts.
	TopValues []ValueCount
	// Min/Max are populated for numeric fields.
	Min, Max float64
}

// ValueCount is a value with its frequency.
type ValueCount struct {
	Value string
	N     int
}

// CapDistinct bounds distinct-value tracking per field.
const CapDistinct = 10000

// Stats computes per-field statistics over the dataset.
func (d *Dataset) Stats() []FieldStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]FieldStats, 0, len(d.schema.Fields))
	for _, f := range d.schema.Fields {
		fs := FieldStats{Field: f.Name, Type: f.Type}
		counts := make(map[string]int)
		first := true
		for _, rec := range d.recordsLocked(0) {
			v := rec[f.Name]
			if v == "" {
				continue
			}
			fs.NonEmpty++
			if len(counts) < CapDistinct {
				counts[v]++
			}
			if f.Type == TypeNumber {
				if x, err := strconv.ParseFloat(v, 64); err == nil {
					if first || x < fs.Min {
						fs.Min = x
					}
					if first || x > fs.Max {
						fs.Max = x
					}
					first = false
				}
			}
		}
		fs.Distinct = len(counts)
		top := make([]ValueCount, 0, len(counts))
		for v, n := range counts {
			top = append(top, ValueCount{v, n})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].N != top[j].N {
				return top[i].N > top[j].N
			}
			return top[i].Value < top[j].Value
		})
		if len(top) > 5 {
			top = top[:5]
		}
		fs.TopValues = top
		out = append(out, fs)
	}
	return out
}

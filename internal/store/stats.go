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

// Stats computes per-field statistics over the dataset in one walk
// of its records, so a mapped dataset inflates each record block once.
func (d *Dataset) Stats() []FieldStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	fields := d.schema.Fields
	out := make([]FieldStats, len(fields))
	counts := make([]map[string]int, len(fields))
	seen := make([]bool, len(fields)) // a numeric value set Min and Max
	for i, f := range fields {
		out[i] = FieldStats{Field: f.Name, Type: f.Type}
		counts[i] = make(map[string]int)
	}
	for _, rec := range d.recordsLocked(0) {
		for i, f := range fields {
			v := rec[f.Name]
			if v == "" {
				continue
			}
			fs := &out[i]
			fs.NonEmpty++
			if len(counts[i]) < CapDistinct {
				counts[i][v]++
			}
			if f.Type == TypeNumber {
				if x, err := strconv.ParseFloat(v, 64); err == nil {
					if !seen[i] || x < fs.Min {
						fs.Min = x
					}
					if !seen[i] || x > fs.Max {
						fs.Max = x
					}
					seen[i] = true
				}
			}
		}
	}
	for i := range out {
		fs := &out[i]
		fs.Distinct = len(counts[i])
		top := make([]ValueCount, 0, len(counts[i]))
		for v, n := range counts[i] {
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
	}
	return out
}

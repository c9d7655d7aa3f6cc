// Package store implements Symphony's private, secure storage and
// indexing for application designers' proprietary data (§II-A,
// "Proprietary Data").
//
// Each designer owns a tenant space; inside it live named datasets,
// each with a typed schema. Records are stored, validated against the
// schema, and indexed for full-text search over the fields the
// designer marks searchable. Access control keeps one designer's data
// invisible to others unless explicitly granted — the paper's
// "private and secure space".
package store

import (
	"fmt"
	"strconv"
	"strings"
)

// FieldType is the declared type of a schema field.
type FieldType string

// Supported field types. Everything arrives as a string from the
// upload formats (delimited/XML/RSS); types drive validation and
// structured comparisons.
const (
	TypeString FieldType = "string"
	TypeNumber FieldType = "number"
	TypeBool   FieldType = "bool"
	TypeURL    FieldType = "url"
)

// Field describes one schema column.
type Field struct {
	Name string    `json:"name"`
	Type FieldType `json:"type"`
	// Searchable fields are analyzed into the dataset's full-text
	// index; the designer configures "how each [source] should be
	// searched" by choosing these.
	Searchable bool `json:"searchable"`
	// Required fields must be present and non-empty in every record.
	Required bool `json:"required"`
}

// Schema is a dataset's column layout.
type Schema struct {
	Name string `json:"name"`
	// Key names the field used as record identity. Empty means the
	// store assigns sequential IDs.
	Key    string  `json:"key,omitempty"`
	Fields []Field `json:"fields"`
}

// Validate checks internal consistency.
func (s Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("store: schema has no name")
	}
	if len(s.Fields) == 0 {
		return fmt.Errorf("store: schema %q has no fields", s.Name)
	}
	seen := make(map[string]bool, len(s.Fields))
	for _, f := range s.Fields {
		if f.Name == "" {
			return fmt.Errorf("store: schema %q has unnamed field", s.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("store: schema %q duplicates field %q", s.Name, f.Name)
		}
		seen[f.Name] = true
		switch f.Type {
		case TypeString, TypeNumber, TypeBool, TypeURL, "":
		default:
			return fmt.Errorf("store: field %q has unknown type %q", f.Name, f.Type)
		}
	}
	if s.Key != "" && !seen[s.Key] {
		return fmt.Errorf("store: key field %q not in schema", s.Key)
	}
	return nil
}

// Field returns the named field definition.
func (s Schema) Field(name string) (Field, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// FieldNames lists field names in schema order.
func (s Schema) FieldNames() []string {
	out := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		out[i] = f.Name
	}
	return out
}

// SearchableFields lists the names of searchable fields.
func (s Schema) SearchableFields() []string {
	var out []string
	for _, f := range s.Fields {
		if f.Searchable {
			out = append(out, f.Name)
		}
	}
	return out
}

// Record is one row of proprietary data. All values are strings at
// the storage layer; the schema's types govern validation and
// structured filtering.
type Record map[string]string

// checkRecord validates rec against the schema.
func checkRecord(s Schema, rec Record) error {
	for _, f := range s.Fields {
		v, ok := rec[f.Name]
		if f.Required && (!ok || strings.TrimSpace(v) == "") {
			return fmt.Errorf("store: record missing required field %q", f.Name)
		}
		if !ok || v == "" {
			continue
		}
		switch f.Type {
		case TypeNumber:
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				return fmt.Errorf("store: field %q: %q is not a number", f.Name, v)
			}
		case TypeBool:
			if _, err := strconv.ParseBool(v); err != nil {
				return fmt.Errorf("store: field %q: %q is not a bool", f.Name, v)
			}
		case TypeURL:
			if !strings.Contains(v, "://") {
				return fmt.Errorf("store: field %q: %q is not a URL", f.Name, v)
			}
		}
	}
	for name := range rec {
		if _, ok := s.Field(name); !ok {
			return fmt.Errorf("store: record has unknown field %q", name)
		}
	}
	return nil
}

// InferSchema derives a schema from sample records, used by the
// ingest package when an upload arrives without a declared schema.
// A column is a number/bool/url only if every non-empty sample parses
// as one; string otherwise. All string columns are searchable.
func InferSchema(name string, samples []Record) Schema {
	cols := map[string]FieldType{}
	order := []string{}
	for _, rec := range samples {
		for k, v := range rec {
			cur, seen := cols[k]
			if !seen {
				order = append(order, k)
				cols[k] = classify(v)
				continue
			}
			if v == "" {
				continue
			}
			if got := classify(v); got != cur {
				// widen conflicting types to string
				if cur != TypeString {
					cols[k] = widen(cur, got)
				}
			}
		}
	}
	// Keep column order stable: sort by first appearance.
	sch := Schema{Name: name}
	for _, k := range order {
		t := cols[k]
		sch.Fields = append(sch.Fields, Field{
			Name:       k,
			Type:       t,
			Searchable: t == TypeString,
		})
	}
	return sch
}

func classify(v string) FieldType {
	if v == "" {
		return TypeString
	}
	// Upload-time inference classifies every cell, and a failed strconv
	// parse allocates its error, so parses that cannot succeed are
	// skipped: a float starts (after its sign) with a digit, '.', or
	// the i/n of "inf"/"nan"; the longest bool spelling is "FALSE".
	if couldBeFloat(v) {
		if _, err := strconv.ParseFloat(v, 64); err == nil {
			return TypeNumber
		}
	}
	if len(v) <= len("false") {
		if _, err := strconv.ParseBool(v); err == nil {
			return TypeBool
		}
	}
	if strings.HasPrefix(v, "http://") || strings.HasPrefix(v, "https://") || strings.HasPrefix(v, "ftp://") {
		return TypeURL
	}
	return TypeString
}

func couldBeFloat(v string) bool {
	c := v[0]
	if (c == '+' || c == '-') && len(v) > 1 {
		c = v[1]
	}
	switch c {
	case '.', 'i', 'I', 'n', 'N':
		return true
	}
	return c >= '0' && c <= '9'
}

func widen(a, b FieldType) FieldType {
	if a == b {
		return a
	}
	return TypeString
}

package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestReportSchemaDocumented: docs/fleet-report.md documents every
// field of the report, per-device and partial wire forms, so every JSON
// key those types marshal must appear in it, in backticks. A new field
// without a doc line fails here instead of going undocumented.
func TestReportSchemaDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "fleet-report.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []any{reportJSON{}, bucketJSON{}, deviceJSON{}, Partial{}, partialBucket{}} {
		typ := reflect.TypeOf(v)
		keys := jsonKeys(typ)
		if len(keys) < 5 {
			t.Fatalf("%s: found only %d JSON keys %v; the reflection walk looks broken", typ.Name(), len(keys), keys)
		}
		for _, k := range keys {
			if !strings.Contains(string(doc), "`"+k+"`") {
				t.Errorf("%s: JSON key %q is not documented in docs/fleet-report.md", typ.Name(), k)
			}
		}
	}
}

// jsonKeys lists the keys encoding/json marshals for a struct type,
// flattening embedded structs the way the encoder does.
func jsonKeys(typ reflect.Type) []string {
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case name == "-":
		case f.Anonymous && name == "" && f.Type.Kind() == reflect.Struct:
			keys = append(keys, jsonKeys(f.Type)...)
		case !f.IsExported():
		case name == "":
			keys = append(keys, f.Name)
		default:
			keys = append(keys, name)
		}
	}
	return keys
}

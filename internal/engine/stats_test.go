package engine

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestStatsFieldsEnumeratesEveryField pins the invariant that makes
// Add/Snapshot merging safe to extend: every int64 field of Stats must
// appear exactly once in fields(), so a newly added counter can never
// be silently dropped from accumulation.
func TestStatsFieldsEnumeratesEveryField(t *testing.T) {
	var a, b Stats
	fs := a.fields(&b)

	typ := reflect.TypeOf(a)
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()

	dsts := make(map[unsafe.Pointer]bool, len(fs))
	srcs := make(map[unsafe.Pointer]bool, len(fs))
	for _, f := range fs {
		if dsts[unsafe.Pointer(f.dst)] {
			t.Errorf("fields() lists a destination counter twice")
		}
		dsts[unsafe.Pointer(f.dst)] = true
		srcs[unsafe.Pointer(f.src)] = true
	}

	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if sf.Type.Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is %s; fields() only knows how to merge int64 counters — extend the mechanism", sf.Name, sf.Type)
		}
		ap := unsafe.Pointer(av.Field(i).Addr().Pointer())
		bp := unsafe.Pointer(bv.Field(i).Addr().Pointer())
		if !dsts[ap] {
			t.Errorf("Stats.%s is missing from fields(): Add/Snapshot would silently drop it", sf.Name)
		}
		if !srcs[bp] {
			t.Errorf("Stats.%s is missing from fields() sources", sf.Name)
		}
	}
	if len(fs) != typ.NumField() {
		t.Errorf("fields() has %d entries for %d struct fields", len(fs), typ.NumField())
	}
}

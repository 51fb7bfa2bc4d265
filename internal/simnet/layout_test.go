package simnet

import (
	"reflect"
	"testing"
	"unsafe"
)

// pointerFields returns the paths of every field of t (recursing into
// structs and arrays) whose kind makes the garbage collector scan it.
func pointerFields(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
		return []string{path + " (" + t.Kind().String() + ")"}
	case reflect.Array:
		return pointerFields(t.Elem(), path+"[]")
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, pointerFields(f.Type, path+"."+f.Name)...)
		}
		return out
	}
	return nil
}

// TestActivityPointerFree: the activity slabs, the edge list, the event
// queue and the ready heaps hold the whole simulation graph. None of their
// element types may contain a pointer, string, slice, map or interface, or
// the slabs stop being no-scan allocations and the garbage collector walks
// every graph again (DESIGN.md §6).
func TestActivityPointerFree(t *testing.T) {
	for _, v := range []any{Activity{}, keyed{}, edge{}, inFlight{}, durClass{}} {
		typ := reflect.TypeOf(v)
		if bad := pointerFields(typ, typ.Name()); len(bad) > 0 {
			t.Errorf("%s is not pointer-free: %v", typ.Name(), bad)
		}
	}
}

// TestActivitySize: an Activity fills exactly one 64-byte cache line. The
// slabs are page-aligned arrays, so every activity the event loop touches
// — a completing one, each of its successors, each one it starts — costs
// one line, not two. A field added past 64 bytes must pay for itself
// against that.
func TestActivitySize(t *testing.T) {
	if got := unsafe.Sizeof(Activity{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Activity{}) = %d, want 64 (one cache line)", got)
	}
}

package simnet

import (
	"reflect"
	"testing"
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
// heap and the ready heaps hold the whole simulation graph. None of their
// element types may contain a pointer, string, slice, map or interface, or
// the slabs stop being no-scan allocations and the garbage collector walks
// every graph again (DESIGN.md §6).
func TestActivityPointerFree(t *testing.T) {
	for _, v := range []any{Activity{}, keyed{}, edge{}} {
		typ := reflect.TypeOf(v)
		if bad := pointerFields(typ, typ.Name()); len(bad) > 0 {
			t.Errorf("%s is not pointer-free: %v", typ.Name(), bad)
		}
	}
}

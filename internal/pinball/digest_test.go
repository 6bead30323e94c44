package pinball_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pinball"
	"repro/internal/vm"
)

// TestDigestCoversEveryField fills every field reachable from a Pinball
// with a distinct value, then changes one field at a time — each scalar,
// each slice's length, each pointer's presence, each map key — and
// checks that the digest moves. A field added to Pinball (or to a type
// it embeds) without being folded into Digest fails here, so caches
// keyed on the digest cannot silently serve one recording's replay
// products for another.
func TestDigestCoversEveryField(t *testing.T) {
	var pb pinball.Pinball
	var next int64
	fillDistinct(t, reflect.ValueOf(&pb).Elem(), &next)
	base := pb.Digest()
	if again := pb.Digest(); again != base {
		t.Fatalf("digest not deterministic: %x then %x", base, again)
	}

	changed := 0
	check := func(path string) {
		t.Helper()
		if pb.Digest() == base {
			t.Errorf("changing %s leaves the digest unchanged", path)
		}
		changed++
	}
	forEachMutation(t, reflect.ValueOf(&pb).Elem(), "Pinball", check)
	if pb.Digest() != base {
		t.Fatal("mutations were not undone")
	}
	if changed < 60 {
		t.Fatalf("only %d mutations visited; the walk missed fields", changed)
	}
}

// TestDigestPageOrder: two memory images with the same pages digest
// alike however the map was built.
func TestDigestPageOrder(t *testing.T) {
	a := &pinball.Pinball{State: &vm.MachineState{Mem: vm.Image{}}}
	b := &pinball.Pinball{State: &vm.MachineState{Mem: vm.Image{}}}
	for pn := int64(0); pn < 64; pn++ {
		a.State.Mem[pn] = []int64{pn}
	}
	for pn := int64(63); pn >= 0; pn-- {
		b.State.Mem[pn] = []int64{pn}
	}
	if a.Digest() != b.Digest() {
		t.Fatal("digest depends on map insertion order")
	}
}

// fillDistinct sets every field reachable from v to a value no other
// field holds: slices and maps get one element, pointers a fresh target.
func fillDistinct(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*next++
		v.SetUint(uint64(*next))
	case reflect.String:
		*next++
		v.SetString(fmt.Sprint("s", *next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillDistinct(t, v.Index(0), next)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Map:
		k := reflect.New(v.Type().Key()).Elem()
		fillDistinct(t, k, next)
		e := reflect.New(v.Type().Elem()).Elem()
		fillDistinct(t, e, next)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	default:
		t.Fatalf("fillDistinct: unsupported kind %s", v.Kind())
	}
}

// forEachMutation changes each part of v in turn, calls check with its
// path, and undoes the change.
func forEachMutation(t *testing.T, v reflect.Value, path string, check func(string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1000)
		check(path)
		v.SetInt(old)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		old := v.Uint()
		v.SetUint(old + 100)
		check(path)
		v.SetUint(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "x")
		check(path)
		v.SetString(old)
	case reflect.Bool:
		v.SetBool(!v.Bool())
		check(path)
		v.SetBool(!v.Bool())
	case reflect.Pointer:
		old := v.Elem()
		forEachMutation(t, old, path, check)
		v.Set(reflect.Zero(v.Type()))
		check(path + "=nil")
		v.Set(old.Addr())
	case reflect.Slice:
		if v.CanSet() { // a map value's length is changed by the map case
			old := v.Slice(0, v.Len())
			v.Set(grown(old))
			check(path + "+elem")
			v.Set(old)
		}
		for i := 0; i < v.Len(); i++ {
			forEachMutation(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			forEachMutation(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			forEachMutation(t, v.Field(i), path+"."+v.Type().Field(i).Name, check)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			e := v.MapIndex(k)
			if e.Kind() != reflect.Slice {
				t.Fatalf("%s: map values of kind %s are not walked", path, e.Kind())
			}
			forEachMutation(t, e, fmt.Sprintf("%s[%v]", path, k), check)
			v.SetMapIndex(k, grown(e))
			check(fmt.Sprintf("%s[%v]+elem", path, k))
			v.SetMapIndex(k, e)
			moved := reflect.New(k.Type()).Elem()
			moved.SetInt(k.Int() + 1000)
			v.SetMapIndex(k, reflect.Value{})
			v.SetMapIndex(moved, e)
			check(fmt.Sprintf("%s key %v", path, k))
			v.SetMapIndex(moved, reflect.Value{})
			v.SetMapIndex(k, e)
		}
	default:
		t.Fatalf("forEachMutation: unsupported kind %s", v.Kind())
	}
}

// grown returns a copy of the non-empty slice s with its first element
// appended, leaving s itself untouched.
func grown(s reflect.Value) reflect.Value {
	return reflect.Append(s.Slice3(0, s.Len(), s.Len()), s.Index(0))
}

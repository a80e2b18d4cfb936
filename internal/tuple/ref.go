package tuple

import "unsafe"

// eface is the runtime's layout of an interface value such as Value: a
// type word, then a data word that points at the value when the type is
// not pointer-shaped, as int64, float64 and string are not.
type eface struct {
	typ  unsafe.Pointer
	data unsafe.Pointer
}

// ref returns the Value holding *p — equal to Value(*p) under ==,
// Compare, Hash, reflection and formatting — without copying *p into a
// new heap box: its data word is p itself. It is the one use of unsafe
// in this package, the counterpart of dfs.ReadString. It is sound
// because a batch's column vectors are never written after the value
// they hold is appended (see Batch), and an interface's value is never
// written through its data word; the Value keeps the vector p points
// into alive.
func ref[T int64 | float64 | string](p *T) Value {
	var zero T
	v := Value(zero) // the zero value is boxed without an allocation
	(*eface)(unsafe.Pointer(&v)).data = unsafe.Pointer(p)
	return v
}

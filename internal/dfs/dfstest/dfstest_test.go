package dfstest

import (
	"errors"
	"testing"
)

// TestCrashAfterCountsAndDropsEveryMutation: each of the six mutating
// calls counts once; CrashAfter(n) lets exactly n through and drops
// every later one without touching storage, while reads still pass.
func TestCrashAfterCountsAndDropsEveryMutation(t *testing.T) {
	inner := New(t)
	f := &Faulty{Backend: inner}
	mutate := func() []error {
		var errs []error
		w := f.Create("d/a/part-00000")
		w.Write([]byte("a"))
		errs = append(errs, w.Close(), f.WriteFile("d/b", []byte("b")))
		if _, ok := f.WriteFileIf("d/c", []byte("c"), f.Version("d/c")); !ok {
			errs = append(errs, ErrCrashed)
		}
		if !f.RemoveFileIf("d/c", f.Version("d/c")) {
			errs = append(errs, ErrCrashed)
		}
		_, err := f.Rename("d/b", "d/b2")
		return append(errs, err, f.Delete("d/a"))
	}
	for i, err := range mutate() {
		if err != nil {
			t.Fatalf("mutation %d of an uncrashed Faulty: %v", i, err)
		}
	}
	if n := f.Mutations(); n != 6 {
		t.Fatalf("Mutations = %d after six mutating calls, want 6", n)
	}
	if got, _ := f.ReadFile("d/b2"); string(got) != "b" || f.Exists("d/a") || f.Exists("d/c") {
		t.Fatalf("uncrashed mutations did not reach storage: %v", inner.List(""))
	}

	f.CrashAfter(2)
	before := inner.List("")
	vRenamed, vRemoved := inner.Version("d/b2"), inner.Version("d/c")
	for i, err := range mutate() {
		if passed := i < 2; passed != (err == nil) || !passed && !errors.Is(err, ErrCrashed) {
			t.Fatalf("mutation %d after CrashAfter(2): %v", i, err)
		}
	}
	if n := f.Mutations(); n != 12 {
		t.Fatalf("Mutations = %d, want 12: dropped calls count too", n)
	}
	// The two that passed rewrote d/a and d/b; nothing else moved.
	after := inner.List("")
	if len(after) != len(before)+2 {
		t.Fatalf("files after the crash = %v, want %v plus d/a and d/b", after, before)
	}
	if inner.Version("d/b2") != vRenamed || inner.Version("d/c") != vRemoved {
		t.Fatal("a dropped mutation moved a dataset version")
	}
}

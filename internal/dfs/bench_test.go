package dfs

import (
	"fmt"
	"testing"
)

// BenchmarkNamespace pins what the Backend contract says a namespace
// operation costs: its result and the depth of its path, never the size
// of the store. Each operation works on a 28-part dataset (or a
// 4-dataset directory, or an absent lease path) beside 1 k and then
// 64 k unrelated resident files; ns/op must stay within 2× between the
// two. Over a flat file map it was ~60×.
func BenchmarkNamespace(b *testing.B) {
	const parts = 28
	fill := func(b *testing.B, fs Backend, ds string) {
		for i := 0; i < parts; i++ {
			if err := fs.WriteFile(fmt.Sprintf("%s/part-%05d", ds, i), []byte("row\n")); err != nil {
				b.Fatal(err)
			}
		}
	}
	forEachBackend(b, func(b *testing.B, fs Backend) {
		for _, ds := range []string{"bench/q1/out", "bench/q2/out", "bench/q3/out", "bench/q4/out"} {
			fill(b, fs, ds)
		}
		resident := 0
		for _, n := range []int{1 << 10, 64 << 10} {
			// Residents are standalone files, 64 to a directory: each is
			// a dataset of its own, the shape of journal and lease records.
			for ; resident < n; resident++ {
				p := fmt.Sprintf("resident/d%04d/r%02d", resident/64, resident%64)
				if err := fs.WriteFile(p, []byte("x")); err != nil {
					b.Fatal(err)
				}
			}
			for _, op := range []struct {
				name string
				run  func(b *testing.B)
			}{
				{"List", func(b *testing.B) { fs.List("bench/q1/out") }},
				{"FileStats", func(b *testing.B) { fs.FileStats("bench/q1/out") }},
				{"DeleteRecreate", func(b *testing.B) {
					if err := fs.Delete("bench/q1/out"); err != nil {
						b.Fatal(err)
					}
					fill(b, fs, "bench/q1/out")
				}},
				{"Rename", func(b *testing.B) {
					if _, err := fs.Rename("bench/q1/out", "bench/q1/moved"); err != nil {
						b.Fatal(err)
					}
					if _, err := fs.Rename("bench/q1/moved", "bench/q1/out"); err != nil {
						b.Fatal(err)
					}
				}},
				{"StatAbsent", func(b *testing.B) { fs.Stat("bench/locks/absent") }},
				{"ExistsAbsent", func(b *testing.B) { fs.Exists("bench/locks/absent") }},
				{"Datasets", func(b *testing.B) { fs.Datasets("bench") }},
			} {
				b.Run(fmt.Sprintf("%s/resident=%d", op.name, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						op.run(b)
					}
				})
			}
		}
	})
}

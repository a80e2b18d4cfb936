package mrcompile

import (
	"testing"

	"repro/internal/logical"
	"repro/internal/piglatin"
	"repro/internal/pigmix"
)

// FuzzCompile drives the compiler front end a submitted script crosses
// — parse, build, optimize, compile — over arbitrary text, seeded with
// every PigMix query. Any stage may reject a script with an error; none
// may panic, and a script every stage accepts compiles to a workflow.
//
//	go test ./internal/mrcompile -run '^$' -fuzz FuzzCompile -fuzztime 30s
func FuzzCompile(f *testing.F) {
	for _, name := range pigmix.Names() {
		q, err := pigmix.Get(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(q.Script)
	}
	f.Fuzz(func(t *testing.T, src string) {
		script, err := piglatin.Parse(src)
		if err != nil {
			return
		}
		lp, err := logical.Build(script)
		if err != nil {
			return
		}
		wf, err := Compile(logical.Optimize(lp), Options{TempPrefix: "tmp/fuzz", DefaultReducers: 2})
		if err == nil && wf == nil {
			t.Fatalf("Compile accepted the script but returned no workflow:\n%s", src)
		}
	})
}

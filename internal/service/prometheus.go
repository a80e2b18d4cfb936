package service

import (
	"cmp"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// WritePrometheus emits the bundle in the Prometheus text exposition
// format (version 0.0.4): the four wall-latency histograms, then one
// sample for every numeric field of the bundle. GET
// /metrics?format=prometheus serves it; the JSON bundle stays the
// default body.
//
// The stats structs are the only list of the system's counters, so
// this is the first reflect in production code: a hand list beside
// them drifts and leaves counters out. A sample is named restore_ plus
// the field's JSON key path in snake case, embedded structs flattened
// (TenantCounters' fields are restore_service_*); a counter gets the
// _total suffix. A field's `prom` tag is the one place that marks it a
// gauge (prom:"gauge") or leaves it out (prom:"-"). Strings, maps and
// nil pointers carry no sample.
func (b StatsBundle) WritePrometheus(w io.Writer) {
	b.Latency.Query.WritePrometheus(w, "restore_query_latency_seconds")
	b.Latency.Probe.WritePrometheus(w, "restore_probe_latency_seconds")
	b.Latency.ClaimWait.WritePrometheus(w, "restore_claim_wait_seconds")
	b.Latency.Refresh.WritePrometheus(w, "restore_refresh_latency_seconds")
	writeSamples(w, "restore", reflect.ValueOf(b))
}

// writeSamples writes one sample per numeric field of the struct v,
// named under prefix, and descends into struct fields.
func writeSamples(w io.Writer, prefix string, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		tag := f.Tag.Get("prom")
		if !f.IsExported() || key == "-" || tag == "-" {
			continue
		}
		fv := reflect.Indirect(v.Field(i)) // nil pointer: invalid, no case takes it
		name := prefix
		if !f.Anonymous {
			name += "_" + snakeCase(cmp.Or(key, f.Name))
		}
		switch {
		case fv.Kind() == reflect.Struct:
			writeSamples(w, name, fv)
		case fv.CanInt() || fv.CanUint() || fv.CanFloat():
			kind := "gauge"
			if tag != "gauge" {
				kind, name = "counter", name+"_total"
			}
			fmt.Fprintf(w, "# TYPE %s %s\n%s %v\n", name, kind, name, fv.Interface())
		}
	}
}

// snakeCase turns a JSON key (ClaimsGranted, batchCache, heap_live_bytes)
// into a metric name part (claims_granted, batch_cache, heap_live_bytes).
// A key with an acronym needs a json tag (DFSBytes is dfs_bytes).
func snakeCase(s string) string {
	var b strings.Builder
	for i, c := range s {
		if 'A' <= c && c <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteRune(c)
	}
	return b.String()
}

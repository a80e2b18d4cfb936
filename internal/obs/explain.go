package obs

import (
	"fmt"
	"io"
	"time"
)

// Explain renders a trace snapshot as a human-readable
// reuse-provenance report: for every job, which candidates the
// signature index nominated, why each was rejected, which entry won
// and what it saved, whether the job waited on a claim, refreshed a
// stale entry, or ran cold on the engine.
func Explain(w io.Writer, tj *TraceJSON) {
	if tj == nil {
		fmt.Fprintln(w, "no trace recorded (tracing disabled)")
		return
	}
	fmt.Fprintf(w, "query %s — wall %s\n", tj.QueryID, fmtMs(tj.WallMs))
	for _, s := range tj.Spans {
		explainSpan(w, s, 1)
	}
}

func explainSpan(w io.Writer, s *SpanJSON, depth int) {
	ind := indent(depth)
	switch s.Kind {
	case KindSubmit:
		fmt.Fprintf(w, "%ssubmit → done in %s", ind, fmtMs(s.WallMs))
		if s.SimMs > 0 {
			fmt.Fprintf(w, " (simulated cluster time %s)", fmtMs(s.SimMs))
		}
		fmt.Fprintln(w)
	case KindCompile:
		fmt.Fprintf(w, "%scompile: %s\n", ind, fmtMs(s.WallMs))
	case KindJob:
		fmt.Fprintf(w, "%sjob %s (%s)\n", ind, s.Ref, fmtMs(s.WallMs))
	case KindProbe:
		fmt.Fprintf(w, "%sprobe: %d candidate(s) nominated, %s\n",
			ind, len(s.Children), fmtMs(s.WallMs))
		for _, c := range s.Children {
			explainCandidate(w, c, depth+1)
		}
		return // candidates rendered above
	case KindReuse:
		what := "sub-plan"
		if s.Note != "" {
			what = s.Note
		}
		fmt.Fprintf(w, "%sreuse: %s rewritten against entry %s", ind, what, s.Ref)
		if s.BytesIn > 0 {
			fmt.Fprintf(w, ", avoids re-reading %d input bytes", s.BytesIn)
		}
		fmt.Fprintln(w)
	case KindClaimAcquire:
		fmt.Fprintf(w, "%sclaim.acquire: %s (%s)\n", ind, s.Note, fmtMs(s.WallMs))
	case KindClaimWait:
		fmt.Fprintf(w, "%sclaim.wait: blocked %s on a peer materializing %s\n",
			ind, fmtMs(s.WallMs), s.Ref)
	case KindRefresh:
		fmt.Fprintf(w, "%srefresh: entry %s delta-refreshed in %s", ind, s.Ref, fmtMs(s.WallMs))
		if s.Note != "" {
			fmt.Fprintf(w, " (%s)", s.Note)
		}
		fmt.Fprintln(w)
	case KindRefreshDelta:
		fmt.Fprintf(w, "%sdelta job: %d appended bytes read, sim %s\n", ind, s.BytesIn, fmtMs(s.SimMs))
	case KindRefreshMerge:
		fmt.Fprintf(w, "%smerge job: stored ⊎ delta, sim %s\n", ind, fmtMs(s.SimMs))
	case KindRefreshClassify:
		fmt.Fprintf(w, "%sclassify: %s\n", ind, s.Note)
	case KindJobExec:
		fmt.Fprintf(w, "%sexec: cold run on the engine, %s, sim %s, read %d bytes, wrote %d bytes\n",
			ind, fmtMs(s.WallMs), fmtMs(s.SimMs), s.BytesIn, s.BytesOut)
	case KindStoreCommit:
		fmt.Fprintf(w, "%scommit: %s staged → final (%s)\n", ind, s.Ref, fmtMs(s.WallMs))
	default:
		fmt.Fprintf(w, "%s%s %s %s (%s)\n", ind, s.Kind, s.Ref, s.Note, fmtMs(s.WallMs))
	}
	for _, c := range s.Children {
		explainSpan(w, c, depth+1)
	}
}

func explainCandidate(w io.Writer, c *SpanJSON, depth int) {
	ind := indent(depth)
	switch c.Note {
	case ReasonWin:
		fmt.Fprintf(w, "%s✓ entry %s: WIN\n", ind, c.Ref)
	case ReasonRefreshCandidate:
		fmt.Fprintf(w, "%s~ entry %s: stale but mergeable — refresh attempted\n", ind, c.Ref)
	default:
		fmt.Fprintf(w, "%s✗ entry %s: rejected — %s\n", ind, c.Ref, c.Note)
	}
}

func indent(depth int) string {
	const pad = "                                "
	n := depth * 2
	if n > len(pad) {
		n = len(pad)
	}
	return pad[:n]
}

func fmtMs(v float64) string {
	return time.Duration(v * float64(time.Millisecond)).Round(10 * time.Microsecond).String()
}

package obs

// Trace federation: merging the span sets that a coordinator and its
// workers each hold for one trace ID into a single parent-linked tree
// (inspect.WriteTree renders it for humans).
// Spans already cross processes correctly — every hop propagates the W3C
// traceparent, so a worker's root span carries the coordinator's span as
// its parent — federation is just collection, dedup, and ordering.

import "sort"

// MergeSpans merges span sets collected from several processes for the
// same trace: duplicates (by span ID — straggler re-dispatch can record
// one lease twice) keep the first occurrence, and the result is ordered
// by start time with span-ID tie-breaks, the same order a single ring
// would serve.
func MergeSpans(groups ...[]SpanRecord) []SpanRecord {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	out := make([]SpanRecord, 0, total)
	seen := make(map[string]bool, total)
	for _, g := range groups {
		for _, sp := range g {
			if sp.SpanID == "" || seen[sp.SpanID] {
				continue
			}
			seen[sp.SpanID] = true
			out = append(out, sp)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

package telemetry

import "testing"

func TestExemplarLinksTailBucket(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	h.Observe(0.005) // untraced: no exemplar
	if _, ok := h.TailExemplar(); ok {
		t.Fatal("exemplar present before any traced observation")
	}
	h.ObserveExemplar(0.05, 0xabc)
	h.ObserveExemplar(5, 0xdef) // +Inf bucket: the tail
	ex, ok := h.TailExemplar()
	if !ok || ex.TraceID != 0xdef || ex.Value != 5 {
		t.Fatalf("tail exemplar = %+v ok=%v, want trace 0xdef value 5", ex, ok)
	}
	// Latest-wins per bucket.
	h.ObserveExemplar(6, 0x123)
	if ex, _ := h.TailExemplar(); ex.TraceID != 0x123 {
		t.Fatalf("tail exemplar not replaced: %+v", ex)
	}
	// Zero trace IDs never displace a stored exemplar.
	h.Observe(7)
	if ex, _ := h.TailExemplar(); ex.TraceID != 0x123 {
		t.Fatalf("untraced observation displaced exemplar: %+v", ex)
	}
}

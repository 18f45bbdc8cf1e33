package telemetry

// MultiTracer fans each span out to every non-nil tracer in the list.
func MultiTracer(ts ...Tracer) Tracer {
	var live []Tracer
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	return TracerFunc(func(s Span) {
		for _, t := range live {
			t.Emit(s)
		}
	})
}

// Package trace is lafdbscan's request-scoped tracing kernel: spans that
// follow one request from its HTTP handler through job queueing, estimator
// lookup, and every wave barrier of the clustering engines, recorded into a
// fixed-capacity in-process ring buffer.
//
// Like internal/telemetry it is dependency-free by design — no OpenTelemetry,
// no exporters, no background goroutines. A Tracer is a flight recorder: the
// ring holds the most recent spans, GET /v1/traces (internal/serve) reads it,
// and older spans fall off the end. The record path is wait-free and
// allocation-free when a request is unsampled, so tracing can stay on in
// production (see BenchmarkSpanRecord and the lafvet hotpath roster).
//
// # Usage
//
// The serving layer owns the only Tracer and starts a root span per request:
//
//	ctx, span := tracer.Root(r.Context(), "POST /v1/models/{id}/predict")
//	defer span.Finish()
//
// Layers below start children from whatever context reaches them, and never
// need to know whether tracing is on — an untraced context yields a nil span
// whose methods all no-op:
//
//	ctx, span := trace.Start(ctx, "estimator.get")
//	span.Annotate(trace.Str("cache", "hit"))
//	span.Finish()
//
// Work that outlives its request context (async jobs) captures a Link at
// submit time and parents later spans through it:
//
//	link := trace.LinkFromContext(ctx)   // at submit, request ctx still live
//	...
//	span := link.NewSpan("job.run")      // at run, request long gone
//	ctx = trace.ContextWithSpan(e.baseCtx, span)
//
// # Sampling
//
// New(capacity, sampleEvery) keeps every sampleEvery-th root trace,
// deterministically (roots 1, N+1, 2N+1, ...). sampleEvery == 1 traces
// everything; 0 disables tracing. The decision is made once at the root;
// children inherit it for free because an unsampled root leaves no span on
// the context.
package trace

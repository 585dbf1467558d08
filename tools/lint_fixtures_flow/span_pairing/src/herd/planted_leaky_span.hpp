// Planted span-pairing violations. An open span exports as a lone "B"
// phase event, which obs::validate_trace_json rejects and trace_query
// misparses — so a span_begin must reach span_end on every path.
//
//   drain_once   closes the span only on the happy path: the early return
//                leaks it (the classic guard-clause bug)
//   fire_forget  discards the SpanId outright: nothing can ever close it
//   issue_once   the same guard-clause leak of a request's root span,
//                opened by request_begin and closed by request_end
//
// herd_lint MUST flag all three.
#pragma once

namespace fix {

inline unsigned drain_once(Tracer& tr, bool empty, long now) {
  unsigned span = tr.span_begin("proc0", "drr_wait", now);
  if (empty) {
    return 0;  // PLANTED: leaves drr_wait open
  }
  tr.span_end(span, now);
  return 1;
}

inline void fire_forget(Tracer& tr, long now) {
  tr.span_begin("proc0", "mica_op", now);  // PLANTED: id discarded
}

inline unsigned issue_once(Tracer& tr, bool full, long now) {
  auto root = tr.request_begin("client0", now, 7, NoArgs{});
  if (full) {
    return 0;  // PLANTED: leaves the request's root span open
  }
  tr.request_end("client0", "", now, root, "ok", "net_out");
  return 1;
}

}  // namespace fix

// bd::obs trace — RAII spans with hierarchical nesting, thread-id tagging
// and a Chrome `chrome://tracing` exporter.
//
// Span names MUST be string literals (or otherwise outlive the process):
// events store the pointer, not a copy, so recording costs one timestamp
// and one buffered push. Use the span's integer `arg` for per-instance
// payload (epoch index, round number, ...) instead of building dynamic
// names.
//
// Every recording thread owns a buffer tagged with a dense trace thread id
// (0 = first thread that ever recorded, usually main). Buffers are bounded:
// past the per-thread capacity, whole subtrees are dropped atomically (a
// dropped 'B' suppresses everything until its matching 'E'), so exported
// traces always have balanced begin/end pairs per thread.
//
// Naming convention (documented in DESIGN.md): dot-separated
// `<layer>.<what>` — `op.<kind>.fwd|bwd` graph ops (opened only by the
// autograd executor), `optim.*` optimizer steps, `train.*` / `finetune.*`
// training loops, `gradprune.*` the paper's defense, `defense.<name>` other
// defense phases, `eval.*` metric passes, `runner.*` / `bench.*` the
// experiment harness.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "obs/gate.h"

namespace bd::obs {

inline constexpr std::int64_t kNoArg =
    std::numeric_limits<std::int64_t>::min();

struct TraceEvent {
  const char* name;   // static-lifetime span name
  std::int64_t arg;   // numeric payload, kNoArg when absent
  std::uint64_t ts_ns;  // nanoseconds since the process trace epoch
  std::uint32_t tid;  // dense trace thread id
  char phase;         // 'B' (begin) or 'E' (end)
};

/// Nanoseconds since the process-wide trace epoch (steady clock).
std::uint64_t trace_now_ns();

/// Appends one event to the calling thread's buffer (cold path — callers
/// must check trace_enabled() first).
void record_span_event(const char* name, char phase, std::int64_t arg);

/// RAII span. Disabled cost: one relaxed atomic load in the constructor
/// and one pointer test in the destructor.
class Span {
 public:
  explicit Span(const char* name, std::int64_t arg = kNoArg) {
    if (trace_enabled()) {
      name_ = name;
      record_span_event(name, 'B', arg);
    }
  }
  ~Span() {
    if (name_ != nullptr) record_span_event(name_, 'E', kNoArg);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
};

/// All events recorded so far, ordered by (tid, record order). Call from a
/// quiescent point (no spans being opened/closed concurrently).
std::vector<TraceEvent> snapshot_trace();

/// Drops recorded events; thread ids and capacities are preserved.
void clear_trace();

/// Events discarded because a per-thread buffer hit its capacity.
std::uint64_t trace_dropped_count();

/// Test hook: per-thread event capacity; 0 restores the default (1M).
void set_trace_capacity_for_test(std::size_t per_thread);

/// Chrome trace format: {"traceEvents":[{name,cat,ph,ts,pid,tid,args},...]}
/// with ts/us relative to the trace epoch. Load via chrome://tracing or
/// https://ui.perfetto.dev.
void write_chrome_trace(std::ostream& os);
bool write_chrome_trace_file(const std::string& path);

/// Aggregated per-thread span tree ("name count inclusive-ms self-ms" per
/// node; self = inclusive minus the direct children), for `bdctl profile`.
/// `max_depth` 0 means unlimited.
std::string render_span_tree(std::size_t max_depth = 0);

}  // namespace bd::obs

// Shared pieces of bdbench: command-line options, the in-memory
// span recorder, order statistics, the metric report, digests, provenance
// and a minimal NDJSON-over-TCP client for the serve protocol.
//
// Every timing the benchmark reports is taken here, around calls into the
// repository's public functions; nothing reads the repository's own
// BD_OBS_* probes (they are forced off for every run).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bdbench {

struct Options {
  std::string workload;     // cell-1t | cell-mt | serve-mix
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string profile = "paper";  // paper | tiny (the self-test scale)
  std::string work_dir = ".bench_build/work";
};

// ---------------------------------------------------------------- time

using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t0);
/// Process CPU seconds (user + system, all threads).
double process_cpu_seconds();
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  std::string unit;  // shared by every span of one cell or job
  int parent = -1;
  double start = 0.0;  // seconds since the tracer started
  double end = -1.0;   // < start while the span is open
};

/// In-memory span recorder. Spans nest per thread: a span opened while
/// another span of the same thread is open becomes its child. A disabled
/// tracer records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }
  int open(const std::string& name, const std::string& unit);
  void close(int id);
  /// Adds a finished span with an explicit parent (for work whose spans
  /// overlap on one thread, like the outstanding jobs of a connection).
  int record(const std::string& name, const std::string& unit, int parent,
             Clock::time_point start, Clock::time_point end);
  std::vector<Span> spans() const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const std::string& name,
            const std::string& unit = "");
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  /// Seconds since the scope opened (measured even when tracing is off).
  double elapsed() const { return seconds_since(start_); }

 private:
  Tracer& tracer_;
  int id_;
  Clock::time_point start_;
};

/// One aggregated node of the span tree (spans grouped by name path).
struct TreeRow {
  std::string path;  // "cell/prepare/eval.train"
  int depth = 0;
  std::int64_t count = 0;
  double inclusive = 0.0;  // summed span durations
  double self = 0.0;       // inclusive minus the time covered by children
  bool has_children = false;
};

/// Aggregates spans into rows (depth-first, children in first-seen order)
/// and appends a violation message for every child that starts before or
/// ends after its parent, and every parent whose children sum past it.
std::vector<TreeRow> summarize_spans(const std::vector<Span>& spans,
                                     std::vector<std::string>& violations);
/// Human-readable tree: inclusive and self time per row, with an explicit
/// `unattributed` line under every row that has children.
std::string format_tree(const std::vector<TreeRow>& rows);
/// Writes the raw spans plus the tree as JSON to `path`.
void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<TreeRow>& rows);
/// Inclusive seconds of every span named `name` (any depth), in order.
std::vector<double> span_durations(const std::vector<Span>& spans,
                                   const std::string& name);

// ---------------------------------------------------------------- stats

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// The highest order statistic with at least `beyond_min` samples above
/// it (or the minimum when there are not that many samples).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // share of samples at or below `value`, in %
  std::int64_t beyond = 0;  // samples above it
};
Tail tail_with_beyond(std::vector<double> v, std::int64_t beyond_min = 10);

// ---------------------------------------------------------------- report

/// Collects named metrics and failures, prints them, and emits the final
/// result line.
class Report {
 public:
  /// `samples` is the number of measurements the value summarizes.
  void metric(const std::string& name, double value, const std::string& unit,
              std::int64_t samples, const std::string& note = "");
  /// Records a failed output check or gate for one unit.
  void fail(const std::string& unit, const std::string& reason);
  /// A line of context printed with the report (digests, provenance, ...).
  void info(const std::string& line);

  void set_counts(std::int64_t attempted, std::int64_t failed);

  /// Prints every metric by name, with unit and sample count, then the
  /// failures, then the final JSON line
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  void print() const;

 private:
  struct Entry {
    std::string name, unit, note;
    double value;
    std::int64_t samples;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> info_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Shortest round-trip text of a double ("%.17g").
std::string num(double v);
std::string json_string(const std::string& s);

// ---------------------------------------------------------------- digests

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n);
  void str(const std::string& s);
  void i64(std::int64_t v);
  void f64(double v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------- host

/// One JSON object: host (nproc, CPU model, ISA flags), compiler, build
/// type and flags, git sha, seed, workload and runtime threads in effect.
std::string provenance_json(const Options& opts, int runtime_threads_set,
                            int runtime_threads_observed);

/// Sets the runtime thread count and reads back what is in effect: the
/// count the runtime reports, and the number of distinct threads that
/// actually executed chunks of a probe parallel_for.
struct ThreadsInEffect {
  int reported = 0;
  int observed = 0;
};
ThreadsInEffect set_runtime_threads(int n);

int host_cpus();
/// Threads a multi-threaded workload keeps busy: half the host's CPUs, at
/// least two. On a shared host a parallel section waits for its slowest
/// thread, so filling every CPU would time the other tenants, not the code.
int busy_threads();

// ---------------------------------------------------------------- wire
//
// The load generator speaks the serve protocol the way any external client
// does: its own TCP client and reply parser, not the daemon's internal
// ones, so the benchmark keeps measuring the wire protocol when those
// internals are refactored.

/// A parsed JSON value (just enough for serve protocol replies).
struct JVal {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool b = false;
  double n = 0.0;
  std::string s;
  std::map<std::string, JVal> obj;
  std::vector<JVal> arr;

  const JVal* get(const std::string& key) const;
  std::string str(const std::string& key) const;
  double number(const std::string& key, double fallback = 0.0) const;
  bool flag(const std::string& key) const;
};
/// Throws std::runtime_error on malformed input.
JVal parse_json(const std::string& text);

/// One request line per TCP connection, like any external client. Retries
/// refused/reset connections and `overloaded` replies with backoff and
/// counts every retry.
class WireClient {
 public:
  explicit WireClient(int port) : port_(port) {}
  JVal request(const std::string& line);
  std::int64_t retries() const { return retries_.load(); }

 private:
  std::string round_trip(const std::string& line);
  int port_;
  std::atomic<std::int64_t> retries_{0};
};

}  // namespace bdbench

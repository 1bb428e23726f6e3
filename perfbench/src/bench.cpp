#include "bench.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "runtime/thread_pool.h"

namespace bdbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- spans

namespace {
thread_local std::vector<int> t_open_spans;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

int Tracer::open(const std::string& name, const std::string& unit) {
  if (!enabled_) return -1;
  const double start = seconds_since(t0_);
  std::lock_guard lock(mutex_);
  Span s;
  s.name = name;
  s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  s.unit = unit.empty() && s.parent >= 0 ? spans_[s.parent].unit : unit;
  s.start = start;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  t_open_spans.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (!enabled_ || id < 0) return;
  const double end = seconds_since(t0_);
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
  if (!t_open_spans.empty() && t_open_spans.back() == id) t_open_spans.pop_back();
}

int Tracer::record(const std::string& name, const std::string& unit, int parent,
                   Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return -1;
  const auto rel = [this](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0_).count();
  };
  std::lock_guard lock(mutex_);
  spans_.push_back(Span{name, unit, parent, rel(start), rel(end)});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

SpanScope::SpanScope(Tracer& tracer, const std::string& name,
                     const std::string& unit)
    : tracer_(tracer), id_(tracer.open(name, unit)), start_(Clock::now()) {}

SpanScope::~SpanScope() { tracer_.close(id_); }

std::vector<TreeRow> summarize_spans(const std::vector<Span>& spans,
                                     std::vector<std::string>& violations) {
  const std::size_t n = spans.size();
  std::vector<std::vector<int>> children(n);
  std::vector<int> roots;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.end < s.start) {
      violations.push_back("span '" + s.name + "' never closed");
      continue;
    }
    if (s.parent < 0) {
      roots.push_back(static_cast<int>(i));
    } else {
      children[static_cast<std::size_t>(s.parent)].push_back(static_cast<int>(i));
    }
  }
  // Per-span self time, and the nesting checks.
  std::vector<double> self(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& p = spans[i];
    if (p.end < p.start) continue;
    double covered = 0.0;
    for (int c : children[i]) {
      const Span& ch = spans[static_cast<std::size_t>(c)];
      if (ch.start < p.start || ch.end > p.end) {
        violations.push_back("child '" + ch.name + "' outside parent '" +
                             p.name + "' (unit " + p.unit + ")");
      }
      covered += ch.end - ch.start;
    }
    self[i] = (p.end - p.start) - covered;
    if (self[i] < 0.0) {
      violations.push_back("children of '" + p.name + "' sum past it by " +
                           num(-self[i]) + " s");
    }
  }
  // Aggregate by name path, depth first, children in first-seen order.
  std::vector<TreeRow> rows;
  std::map<std::string, std::size_t> index;
  std::function<void(int, const std::string&, int)> visit =
      [&](int id, const std::string& prefix, int depth) {
        const Span& s = spans[static_cast<std::size_t>(id)];
        const std::string path = prefix.empty() ? s.name : prefix + "/" + s.name;
        auto it = index.find(path);
        if (it == index.end()) {
          it = index.emplace(path, rows.size()).first;
          TreeRow row;
          row.path = path;
          row.depth = depth;
          rows.push_back(row);
        }
        TreeRow& row = rows[it->second];
        row.count += 1;
        row.inclusive += s.end - s.start;
        row.self += self[static_cast<std::size_t>(id)];
        if (!children[static_cast<std::size_t>(id)].empty()) row.has_children = true;
        for (int c : children[static_cast<std::size_t>(id)]) {
          visit(c, path, depth + 1);
        }
      };
  for (int r : roots) visit(r, "", 0);
  // Rows were appended in first-seen order, which interleaves siblings of
  // different parents; order them depth first by path.
  std::vector<TreeRow> ordered;
  std::function<void(const std::string&, int)> emit = [&](const std::string& prefix,
                                                           int depth) {
    for (const TreeRow& row : rows) {
      if (row.depth != depth) continue;
      const auto cut = row.path.rfind('/');
      const std::string parent = cut == std::string::npos ? "" : row.path.substr(0, cut);
      if (parent != prefix) continue;
      ordered.push_back(row);
      emit(row.path, depth + 1);
    }
  };
  emit("", 0);
  return ordered;
}

std::string format_tree(const std::vector<TreeRow>& rows) {
  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-58s %6s %12s %12s\n", "span", "n",
                "inclusive_s", "self_s");
  out << buf;
  for (const TreeRow& row : rows) {
    const auto cut = row.path.rfind('/');
    const std::string leaf = cut == std::string::npos ? row.path : row.path.substr(cut + 1);
    const std::string label = std::string(static_cast<std::size_t>(2 * row.depth), ' ') + leaf;
    std::snprintf(buf, sizeof buf, "%-58s %6lld %12.6f %12.6f\n", label.c_str(),
                  static_cast<long long>(row.count), row.inclusive, row.self);
    out << buf;
    if (row.has_children) {
      const std::string un =
          std::string(static_cast<std::size_t>(2 * row.depth + 2), ' ') + "unattributed";
      std::snprintf(buf, sizeof buf, "%-58s %6s %12.6f %12.6f\n", un.c_str(), "",
                    row.self, row.self);
      out << buf;
    }
  }
  return out.str();
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<TreeRow>& rows) {
  std::ofstream f(path);
  f << "{\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":" << json_string(s.name)
      << ",\"unit\":" << json_string(s.unit) << ",\"parent\":" << s.parent
      << ",\"start\":" << num(s.start) << ",\"end\":" << num(s.end) << "}";
  }
  f << "],\n\"tree\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TreeRow& r = rows[i];
    f << (i ? ",\n" : "\n") << "{\"path\":" << json_string(r.path)
      << ",\"count\":" << r.count << ",\"inclusive_s\":" << num(r.inclusive)
      << ",\"self_s\":" << num(r.self)
      << ",\"unattributed_s\":" << (r.has_children ? num(r.self) : "null") << "}";
  }
  f << "]}\n";
}

std::vector<double> span_durations(const std::vector<Span>& spans,
                                   const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name && s.end >= s.start) out.push_back(s.end - s.start);
  }
  return out;
}

// ---------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Tail tail_with_beyond(std::vector<double> v, std::int64_t beyond_min) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  const std::int64_t idx = std::max<std::int64_t>(0, n - 1 - beyond_min);
  t.value = v[static_cast<std::size_t>(idx)];
  t.beyond = n - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

// ---------------------------------------------------------------- report

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::int64_t samples,
                    const std::string& note) {
  metrics_.push_back({name, unit, note, value, samples});
}

void Report::fail(const std::string& unit, const std::string& reason) {
  failures_.push_back(unit + ": " + reason);
}

void Report::info(const std::string& line) { info_.push_back(line); }

void Report::set_counts(std::int64_t attempted, std::int64_t failed) {
  attempted_ = attempted;
  failed_ = failed;
}

void Report::print() const {
  for (const std::string& line : info_) std::cout << line << "\n";
  for (const Entry& e : metrics_) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "metric %-30s %16.6f %-8s n=%lld", e.name.c_str(),
                  e.value, e.unit.c_str(), static_cast<long long>(e.samples));
    std::cout << buf << (e.note.empty() ? "" : "  " + e.note) << "\n";
  }
  const double frac = attempted_ > 0 ? static_cast<double>(failed_) /
                                           static_cast<double>(attempted_)
                                     : 1.0;
  std::cout << "failed_frac " << num(frac) << " (" << failed_ << " of "
            << attempted_ << " units)\n";
  for (const std::string& f : failures_) std::cout << "FAILED " << f << "\n";
  std::ostringstream line;
  line << "{\"correct\":" << (failures_.empty() ? "true" : "false")
       << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
       << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    line << (i ? "," : "") << json_string(metrics_[i].name) << ":{\"value\":"
         << num(metrics_[i].value) << ",\"unit\":" << json_string(metrics_[i].unit)
         << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

// ---------------------------------------------------------------- digests

void Fnv1a::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}
void Fnv1a::str(const std::string& s) {
  i64(static_cast<std::int64_t>(s.size()));
  bytes(s.data(), s.size());
}
void Fnv1a::i64(std::int64_t v) { bytes(&v, sizeof v); }
void Fnv1a::f64(double v) { bytes(&v, sizeof v); }
std::string Fnv1a::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

// ---------------------------------------------------------------- host

int host_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

int busy_threads() { return std::max(2, host_cpus() / 2); }

namespace {

std::string cpuinfo_field(const std::string& key) {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(" \t"));
        return v;
      }
    }
  }
  return "unknown";
}

std::string isa_flags() {
  // The SIMD-relevant subset of the CPU flags.
  static const char* kInteresting[] = {"sse4_2", "avx", "avx2", "fma",
                                       "avx512f", "avx512bw", "avx512vl",
                                       "avx512_vnni", "amx_tile", "neon", "asimd"};
  std::set<std::string> have;
  for (const char* field : {"flags", "Features"}) {
    std::istringstream in(cpuinfo_field(field));
    std::string tok;
    while (in >> tok) have.insert(tok);
  }
  std::string out;
  for (const char* f : kInteresting) {
    if (!have.count(f)) continue;
    if (!out.empty()) out.push_back(' ');
    out.append(f);
  }
  return out.empty() ? "none" : out;
}

}  // namespace

std::string provenance_json(const Options& opts, int runtime_threads_set,
                            int runtime_threads_observed) {
  std::ostringstream o;
  o << "{\"workload\":" << json_string(opts.workload) << ",\"seed\":" << opts.seed
    << ",\"seconds\":" << num(opts.seconds) << ",\"trace\":" << (opts.trace ? 1 : 0)
    << ",\"profile\":" << json_string(opts.profile)
    << ",\"nproc\":" << host_cpus()
    << ",\"cpu_model\":" << json_string(cpuinfo_field("model name"))
    << ",\"isa\":" << json_string(isa_flags())
    << ",\"bdbench_compiler\":" << json_string(__VERSION__)
    << ",\"runtime_threads_set\":" << runtime_threads_set
    << ",\"runtime_threads_observed\":" << runtime_threads_observed << "}";
  return o.str();
}

ThreadsInEffect set_runtime_threads(int n) {
  bd::runtime::set_thread_count(n);
  ThreadsInEffect t;
  t.reported = bd::runtime::thread_count();
  // Count the distinct threads that run chunks of a parallel_for whose
  // chunks each wait a little, so every pool worker gets to take one.
  std::mutex m;
  std::set<std::thread::id> ids;
  bd::runtime::parallel_for(0, 64, 1, [&](std::int64_t, std::int64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard lock(m);
    ids.insert(std::this_thread::get_id());
  });
  t.observed = static_cast<int>(ids.size());
  return t;
}

// ---------------------------------------------------------------- wire

const JVal* JVal::get(const std::string& key) const {
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}
std::string JVal::str(const std::string& key) const {
  const JVal* v = get(key);
  return v != nullptr && v->kind == Kind::kString ? v->s : "";
}
double JVal::number(const std::string& key, double fallback) const {
  const JVal* v = get(key);
  if (v == nullptr) return fallback;
  if (v->kind == Kind::kNumber) return v->n;
  if (v->kind == Kind::kString) {
    // The serve protocol prints exact doubles as strings.
    char* end = nullptr;
    const double d = std::strtod(v->s.c_str(), &end);
    if (end != v->s.c_str()) return d;
  }
  return fallback;
}
bool JVal::flag(const std::string& key) const {
  const JVal* v = get(key);
  return v != nullptr && v->kind == Kind::kBool && v->b;
}

namespace {

class JsonReader {
 public:
  explicit JsonReader(const std::string& t) : t_(t) {}
  JVal document() {
    JVal v = value(0);
    ws();
    if (i_ != t_.size()) fail("trailing bytes");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("bad JSON at byte " + std::to_string(i_) + ": " + why);
  }
  void ws() {
    while (i_ < t_.size() && std::isspace(static_cast<unsigned char>(t_[i_]))) ++i_;
  }
  bool eat(char c) {
    ws();
    if (i_ < t_.size() && t_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  std::string string_body() {
    std::string out;
    while (i_ < t_.size() && t_[i_] != '"') {
      char c = t_[i_++];
      if (c == '\\') {
        if (i_ >= t_.size()) fail("bad escape");
        const char e = t_[i_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (i_ + 4 > t_.size()) fail("bad \\u escape");
            c = static_cast<char>(std::stoi(t_.substr(i_, 4), nullptr, 16));
            i_ += 4;
            break;
          default: c = e;
        }
      }
      out += c;
    }
    if (i_ >= t_.size()) fail("unterminated string");
    ++i_;
    return out;
  }
  JVal value(int depth) {
    if (depth > 32) fail("nesting too deep");
    ws();
    if (i_ >= t_.size()) fail("unexpected end");
    JVal v;
    const char c = t_[i_];
    if (c == '{') {
      ++i_;
      v.kind = JVal::Kind::kObject;
      if (eat('}')) return v;
      do {
        ws();
        if (!eat('"')) fail("expected key");
        std::string key = string_body();
        if (!eat(':')) fail("expected ':'");
        v.obj[key] = value(depth + 1);
      } while (eat(','));
      if (!eat('}')) fail("expected '}'");
    } else if (c == '[') {
      ++i_;
      v.kind = JVal::Kind::kArray;
      if (eat(']')) return v;
      do {
        v.arr.push_back(value(depth + 1));
      } while (eat(','));
      if (!eat(']')) fail("expected ']'");
    } else if (c == '"') {
      ++i_;
      v.kind = JVal::Kind::kString;
      v.s = string_body();
    } else if (t_.compare(i_, 4, "true") == 0) {
      i_ += 4;
      v.kind = JVal::Kind::kBool;
      v.b = true;
    } else if (t_.compare(i_, 5, "false") == 0) {
      i_ += 5;
      v.kind = JVal::Kind::kBool;
    } else if (t_.compare(i_, 4, "null") == 0) {
      i_ += 4;
    } else {
      const char* start = t_.c_str() + i_;
      char* end = nullptr;
      v.n = std::strtod(start, &end);
      if (end == start) fail("unexpected character");
      v.kind = JVal::Kind::kNumber;
      i_ += static_cast<std::size_t>(end - start);
    }
    return v;
  }

  const std::string& t_;
  std::size_t i_ = 0;
};

// Retryable transport failure (refused, reset, truncated reply).
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw WireError(std::string("send: ") + std::strerror(errno));
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

JVal parse_json(const std::string& text) { return JsonReader(text).document(); }

std::string WireClient::round_trip(const std::string& line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    throw WireError(std::string("connect: ") + std::strerror(errno));
  }
  send_all(fd, line + "\n");
  std::string reply;
  char buf[4096];
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, 120000);
    if (ready == 0) throw WireError("reply timed out");
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("poll: ") + std::strerror(errno));
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw WireError("connection closed before a full reply");
    reply.append(buf, static_cast<std::size_t>(n));
    const auto nl = reply.find('\n');
    if (nl != std::string::npos) return reply.substr(0, nl);
  }
}

JVal WireClient::request(const std::string& line) {
  constexpr int kAttempts = 6;
  for (int attempt = 0;; ++attempt) {
    try {
      JVal reply = parse_json(round_trip(line));
      if (reply.str("error") != "overloaded" || attempt + 1 >= kAttempts) return reply;
    } catch (const WireError&) {
      if (attempt + 1 >= kAttempts) throw;
    }
    retries_.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20 << attempt));
  }
}

}  // namespace bdbench

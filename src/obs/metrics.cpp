#include "obs/metrics.h"

#include "util/atomic_file.h"
#include "util/json.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace bd::obs {

namespace {

void atomic_add_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: empty bucket layout");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be ascending");
  }
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, v);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  return buckets_[i].load(std::memory_order_relaxed);
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& duration_ns_buckets() {
  static const std::vector<double> buckets = {1e3, 1e4, 1e5, 1e6, 1e7,
                                              1e8, 1e9, 1e10};
  return buckets;
}

const std::vector<double>& seconds_buckets() {
  static const std::vector<double> buckets = {1e-3, 1e-2, 1e-1, 1.0,
                                              1e1,  1e2,  1e3};
  return buckets;
}

Registry& Registry::instance() {
  // Leaked so instrument references stay valid during static destruction.
  static Registry* g_registry = new Registry();
  return *g_registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lk(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lk(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::vector<double>& bounds) {
  std::lock_guard lk(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

void Registry::write_jsonl(std::ostream& os) const {
  std::lock_guard lk(mutex_);
  for (const auto& [name, c] : counters_) {
    os << JsonObject()
              .set("type", "counter")
              .set("name", name)
              .set_int("value", static_cast<std::int64_t>(c->value()))
              .str()
       << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    os << JsonObject()
              .set("type", "gauge")
              .set("name", name)
              .set_double("value", g->value())
              .str()
       << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const auto& bounds = h->bounds();
    JsonArray buckets;
    for (std::size_t i = 0; i <= bounds.size(); ++i) {
      JsonObject bucket;
      if (i < bounds.size()) {
        bucket.set_double("le", bounds[i]);
      } else {
        bucket.set("le", "+Inf");
      }
      bucket.set_int("count", static_cast<std::int64_t>(h->bucket_count(i)));
      buckets.push_raw(bucket.str());
    }
    os << JsonObject()
              .set("type", "histogram")
              .set("name", name)
              .set_int("count", static_cast<std::int64_t>(h->count()))
              .set_double("sum", h->sum())
              .set_raw("buckets", buckets.str())
              .str()
       << '\n';
  }
}

bool Registry::write_jsonl_file(const std::string& path) const {
  std::ostringstream os;
  write_jsonl(os);
  return write_file_atomic(path, os.str());
}

std::string Registry::summary(std::size_t top_k) const {
  std::lock_guard lk(mutex_);
  std::ostringstream os;

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  for (const auto& [name, c] : counters_) counters.emplace_back(name, c->value());
  std::stable_sort(counters.begin(), counters.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  os << "counters (top " << std::min(top_k, counters.size()) << " of "
     << counters.size() << ")\n";
  for (std::size_t i = 0; i < counters.size() && i < top_k; ++i) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-36s %20llu\n",
                  counters[i].first.c_str(),
                  static_cast<unsigned long long>(counters[i].second));
    os << line;
  }

  os << "gauges (" << gauges_.size() << ")\n";
  std::size_t shown = 0;
  for (const auto& [name, g] : gauges_) {
    if (shown++ >= top_k) break;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-36s %20.6g\n", name.c_str(),
                  g->value());
    os << line;
  }

  std::vector<std::pair<std::string, const Histogram*>> hists;
  for (const auto& [name, h] : histograms_) hists.emplace_back(name, h.get());
  std::stable_sort(hists.begin(), hists.end(),
                   [](const auto& a, const auto& b) {
                     return a.second->count() > b.second->count();
                   });
  os << "histograms (top " << std::min(top_k, hists.size()) << " of "
     << hists.size() << ")\n";
  for (std::size_t i = 0; i < hists.size() && i < top_k; ++i) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  %-36s count=%-10llu sum=%-14.6g mean=%.6g\n",
                  hists[i].first.c_str(),
                  static_cast<unsigned long long>(hists[i].second->count()),
                  hists[i].second->sum(), hists[i].second->mean());
    os << line;
  }
  return os.str();
}

void Registry::reset_values() {
  std::lock_guard lk(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace bd::obs

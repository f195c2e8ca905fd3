#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstring>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Recorder::Recorder(bool trace)
    : trace_(trace),
      epoch_(Clock::now()),
      timed_start_(epoch_),
      timed_end_(epoch_) {}

uint32_t Recorder::intern(const char* layer) {
  auto it = name_ids_.find(layer);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(layer);
  name_ids_.emplace(layer, id);
  return id;
}

Recorder::Scope::Scope(Recorder& recorder, const char* layer, uint64_t group)
    : recorder_(recorder), layer_(layer), index_(-1) {
  if (recorder_.trace_) {
    Span span;
    span.name = recorder_.intern(layer);
    span.parent = recorder_.open_.empty() ? -1 : recorder_.open_.back();
    span.group = group;
    recorder_.spans_.push_back(span);
    index_ = static_cast<int64_t>(recorder_.spans_.size() - 1);
    recorder_.open_.push_back(index_);
  }
  start_ = Clock::now();
  cpu_start_ = process_cpu_seconds();
}

Recorder::Scope::~Scope() {
  const Clock::time_point end = Clock::now();
  recorder_.accumulate(layer_, start_, end,
                       process_cpu_seconds() - cpu_start_);
  if (index_ < 0) return;
  Span& span = recorder_.spans_[static_cast<size_t>(index_)];
  span.start_ns = recorder_.ns(start_);
  span.end_ns = recorder_.ns(end);
  recorder_.open_.pop_back();
}

void Recorder::accumulate(const char* layer, Clock::time_point start,
                          Clock::time_point end, double cpu_seconds) {
  LayerTime& acc = (timed_ ? layers_ : setup_layers_)[layer];
  acc.seconds += seconds_between(start, end);
  acc.cpu_seconds += cpu_seconds;
  ++acc.calls;
}

void Recorder::add(const char* layer, uint64_t group, Clock::time_point start,
                   Clock::time_point end, int64_t parent) {
  accumulate(layer, start, end, 0);
  if (!trace_) return;
  Span span;
  span.name = intern(layer);
  span.parent = parent;
  span.group = group;
  span.start_ns = ns(start);
  span.end_ns = ns(end);
  spans_.push_back(span);
}

namespace {

const LayerTime& find_layer(const std::map<std::string, LayerTime>& layers,
                            const std::string& name) {
  static const LayerTime kNone;
  auto it = layers.find(name);
  return it == layers.end() ? kNone : it->second;
}

}  // namespace

const LayerTime& Recorder::layer(const std::string& name) const {
  return find_layer(layers_, name);
}

const LayerTime& Recorder::setup_layer(const std::string& name) const {
  return find_layer(setup_layers_, name);
}

double Recorder::unattributed_share() const {
  const int64_t from = ns(timed_start_);
  const int64_t to = ns(timed_end_);
  if (to <= from) return 0;
  int64_t covered = 0;
  for (const Span& span : spans_) {
    if (span.parent >= 0) continue;
    const int64_t lo = std::max(span.start_ns, from);
    const int64_t hi = std::min(span.end_ns, to);
    if (hi > lo) covered += hi - lo;
  }
  return 1.0 - static_cast<double>(covered) / static_cast<double>(to - from);
}

std::map<std::string, double> Recorder::self_seconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  const int64_t from = ns(timed_start_);
  const int64_t to = ns(timed_end_);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.start_ns < from || span.end_ns > to) continue;
    out[names_[span.name]] +=
        1e-9 * static_cast<double>(span.end_ns - span.start_ns - child_ns[i]);
  }
  return out;
}

namespace {

double cpu_clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double process_cpu_seconds() {
  return cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

double thread_cpu_seconds() {
  return cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID);
}

double Recorder::span_cost_seconds() {
  constexpr int kSpans = 200000;
  Recorder scratch(true);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    scratch.time("calibration", static_cast<uint64_t>(i), [] {});
  }
  return seconds_since(start) / kSpans;
}

bool Recorder::write(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "index\tparent\tgroup\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out, "%zu\t%lld\t%llu\t%s\t%lld\t%lld\n", i,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.group),
                 names_[span.name].c_str(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

bool Gates::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return true;
  ++failed_;
  if (failures_.size() < 16) failures_.push_back(what);
  return false;
}

uint64_t Counts::get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

uint64_t Counts::digest() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [name, value] : values_) {
    mix(name + "=" + std::to_string(value) + ";");
  }
  return h;
}

std::string Counts::first_difference(const Counts& other) const {
  std::map<std::string, uint64_t> keys = values_;
  keys.insert(other.values_.begin(), other.values_.end());
  for (const auto& [name, unused] : keys) {
    (void)unused;
    if (get(name) != other.get(name)) {
      return name + ": " + std::to_string(get(name)) + " vs " +
             std::to_string(other.get(name));
    }
  }
  return "";
}

uint64_t reference_kernel(uint64_t steps) {
  // Four independent multiply/shift/xor chains with no memory traffic:
  // several instructions retire per cycle, so the kernel slows when
  // another thread shares the physical core's execution ports, not only
  // when the clock drops -- measured, it moved with the simulator's
  // speed, where dependent-load and pointer-chasing kernels did not.
  uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
  for (uint64_t i = 0; i < steps; ++i) {
    a = a * 0x9E3779B97F4A7C15ULL + i;
    b ^= b >> 7;
    b += a;
    c = c * 0xBF58476D1CE4E5B9ULL + 1;
    d ^= d << 13;
    d += c;
    e = (e + 0x632BE59BD9B4E019ULL) ^ (e >> 5);
    f += e;
    g = g * 0x94D049BB133111EBULL + 3;
    h ^= g >> 11;
  }
  return a ^ b ^ c ^ d ^ e ^ f ^ g ^ h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace cctpbench {

const char* to_string(StepClass c) {
  switch (c) {
    case StepClass::kPlain:
      return "plain";
    case StepClass::kCheckpoint:
      return "checkpoint";
    case StepClass::kEpochClose:
      return "epoch-close";
    case StepClass::kHeal:
      return "heal/reorg";
    case StepClass::kCatchUp:
      return "catch-up";
  }
  return "?";
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  saved_open_ = tracer_->open_;
  tracer_->spans_.push_back(
      Span{name, now_ns(), 0, tracer_->open_, tracer_->step_});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_->open_ = saved_open_;
}

std::map<std::string, double> Tracer::self_ms() const {
  // Children of one parent never overlap (one thread, scoped nesting), so
  // the part of a parent they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.begin_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] +=
        static_cast<double>(s.end_ns - s.begin_ns - child_ns[i]) / 1e6;
  }
  return out;
}

std::map<std::string, double> Tracer::total_ms() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[s.name] += static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
  }
  return out;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.begin_ns) / 1e6);
    }
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().begin_ns;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"step\":" << s.step
        << ",\"parent\":" << s.parent << ",\"begin_ns\":" << s.begin_ns - t0
        << ",\"end_ns\":" << s.end_ns - t0 << "}\n";
  }
}

double Timeline::total_ms() const {
  double sum = 0;
  for (double ms : step_ms) sum += ms;
  return sum;
}

std::uint64_t Ledger::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [_, row] : rows_) n += row.attempted;
  return n;
}

std::uint64_t Ledger::failed() const {
  std::uint64_t n = 0;
  for (const auto& [_, row] : rows_) n += row.failed;
  return n;
}

void Ledger::print() const {
  for (const auto& [kind, row] : rows_) {
    std::printf("ops %-24s attempted %8llu failed %6llu\n", kind.c_str(),
                static_cast<unsigned long long>(row.attempted),
                static_cast<unsigned long long>(row.failed));
  }
  const std::uint64_t a = attempted();
  std::printf("ops %-24s attempted %8llu failed %6llu share %.6f\n", "total",
              static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(failed()),
              a == 0 ? 0.0
                     : static_cast<double>(failed()) / static_cast<double>(a));
}

void Checks::expect(bool ok, const std::string& what) {
  ++count_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 32) failures_.push_back(what);
}

void Checks::merge(const Checks& other) {
  count_ += other.count_;
  failed_ += other.failed_;
  for (const std::string& f : other.failures_) {
    if (failures_.size() < 32) failures_.push_back(f);
  }
}

void Checks::print() const {
  std::printf("checks %zu run, %zu failed\n", count_, failed_);
  for (const std::string& f : failures_) {
    std::printf("check FAILED: %s\n", f.c_str());
  }
}

void RegistrySum::add(const zendoo::obs::Registry& registry) {
  for (const auto& sample : registry.collect(/*include_wall_clock=*/true)) {
    const auto v = static_cast<double>(sample.value);
    sum_[sample.name] += v;
    double& m = max_[sample.name];
    m = std::max(m, v);
  }
}

double RegistrySum::get(const std::string& name) const {
  auto it = sum_.find(name);
  return it == sum_.end() ? 0.0 : it->second;
}

double RegistrySum::max(const std::string& name) const {
  auto it = max_.find(name);
  return it == max_.end() ? 0.0 : it->second;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

}  // namespace cctpbench

#include <fstream>
#include <iomanip>
#include <map>

#include "bench.h"

namespace lmbench {

int Spans::begin(std::string name, uint64_t id, int parent) {
  Span s;
  s.name = std::move(name);
  s.id = id;
  s.parent = parent;
  s.t0 = now_ns();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Spans::end(int span, double work) {
  Span& s = spans_[static_cast<size_t>(span)];
  s.t1 = now_ns();
  s.work = work;
}

void Spans::end_open() {
  const int64_t t = now_ns();
  for (auto& s : spans_) {
    if (s.t1 == 0) s.t1 = t;
  }
}

double Spans::total_ns(const std::string& name) const {
  double t = 0;
  for (const auto& s : spans_) {
    if (s.name == name) t += static_cast<double>(s.t1 - s.t0);
  }
  return t;
}

double Spans::total_work(const std::string& name) const {
  double w = 0;
  for (const auto& s : spans_) {
    if (s.name == name) w += s.work;
  }
  return w;
}

size_t Spans::count(const std::string& name) const {
  size_t n = 0;
  for (const auto& s : spans_) n += s.name == name;
  return n;
}

void Spans::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return;
  f << std::fixed << std::setprecision(3);
  const int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  struct Sum {
    double total_us = 0, self_us = 0;
    size_t count = 0;
  };
  std::map<std::string, Sum> sums;
  // Self time: a span minus its direct children. Children never overlap
  // one another, as the benchmark takes all its spans on one thread.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.t1 - s.t0;
  }
  f << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double self_us = static_cast<double>(s.t1 - s.t0 - child_ns[i]) / 1e3;
    Sum& sum = sums[s.name];
    sum.total_us += static_cast<double>(s.t1 - s.t0) / 1e3;
    sum.self_us += self_us;
    ++sum.count;
    f << (i ? ",\n" : "") << "{\"name\": \"" << s.name
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
      << static_cast<double>(s.t0 - base) / 1e3
      << ", \"dur\": " << static_cast<double>(s.t1 - s.t0) / 1e3
      << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"work\": " << s.work << ", \"self_us\": " << self_us << "}}";
  }
  f << "\n], \"summary\": {";
  bool first = true;
  for (const auto& [name, sum] : sums) {
    f << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
      << sum.count << ", \"total_us\": " << sum.total_us
      << ", \"self_us\": " << sum.self_us << "}";
    first = false;
  }
  f << "}}\n";
}

}  // namespace lmbench

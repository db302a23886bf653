#include "helpers.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

using ficon::PolishExpression;
using ficon::PolishToken;

PolishExpression shelf_row_expression(const ficon::Netlist& netlist) {
  const double shelf_w = std::sqrt(1.15 * netlist.total_module_area());
  std::vector<PolishToken> tokens;
  tokens.reserve(2 * netlist.module_count());
  double x = 0.0;
  bool first_row = true;
  const auto close_row = [&] {
    if (!first_row) tokens.push_back(PolishToken{PolishToken::kH});
    first_row = false;
  };
  for (std::size_t i = 0; i < netlist.module_count(); ++i) {
    const double w = netlist.modules()[i].width;
    const int id = static_cast<int>(i);
    if (x > 0.0 && x + w > shelf_w) {
      close_row();
      x = 0.0;
    }
    tokens.push_back(PolishToken{id});
    if (x > 0.0) tokens.push_back(PolishToken{PolishToken::kV});
    x += w;
  }
  close_row();
  return PolishExpression(std::move(tokens));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  return ficon::SplitMix64(seed ^ (purpose * 0x9E3779B97F4A7C15ull)).next();
}

std::vector<std::string> request_walk(const ficon::Netlist& netlist,
                                      std::uint64_t seed, int count) {
  std::vector<std::string> walk;
  walk.reserve(static_cast<std::size_t>(std::max(count, 0)));
  const PolishExpression start =
      PolishExpression::initial(static_cast<int>(netlist.module_count()));
  PolishExpression expr = start;
  ficon::Rng rng(derive_seed(seed, 3));
  for (int i = 0; i < count; ++i) {
    if (i % kWalkRestart == 0) expr = start;
    expr.random_move(rng);
    walk.push_back(expr.to_string());
  }
  return walk;
}

void Checksum::add(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h_ ^= (bits >> (8 * i)) & 0xFFu;
    h_ *= 1099511628211ull;
  }
}

std::string Checksum::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// 1-based nearest rank of percentile p over n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

TailPercentile tail_percentile(std::vector<double> values,
                               std::size_t min_beyond, double max_percentile) {
  TailPercentile out;
  out.count = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > max_percentile && p != 50.0) continue;
    const std::size_t rank = nearest_rank(n, p);
    if (n - rank >= min_beyond || p == 50.0) {
      out.percentile = p;
      out.value = values[rank - 1];
      out.beyond = n - rank;
      return out;
    }
  }
  return out;
}

int SpanRecorder::name_id(const std::string& name) {
  const int found = find(name);
  if (found >= 0) return found;
  names_.push_back(name);
  return static_cast<int>(names_.size()) - 1;
}

int SpanRecorder::find(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  return it == names_.end() ? -1 : static_cast<int>(it - names_.begin());
}

int SpanRecorder::open(int name, long long op, long long now) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now;
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::close(int span, long long now) {
  FICON_REQUIRE(!open_.empty() && open_.back() == span,
                "spans must close innermost first");
  spans_[static_cast<std::size_t>(span)].end_ns = now;
  open_.pop_back();
}

std::vector<long long> SpanRecorder::self_ns() const {
  std::vector<long long> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

double SpanRecorder::self_seconds(const std::string& name) const {
  const int id = find(name);
  const std::vector<long long> self = self_ns();
  long long sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == id) sum += self[i];
  }
  return static_cast<double>(sum) * 1e-9;
}

void RunReport::metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void RunReport::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
}

int pin_to_cpu_slot(int slot) {
  // The set the process started with: once pinned, the thread's own
  // affinity is a single CPU.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  if (cpus.empty() || slot < 0) return -1;
  const int cpu = cpus[static_cast<std::size_t>(slot) % cpus.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string fmt_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench

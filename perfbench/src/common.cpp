#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench.hpp"
#include "fabric/wan.hpp"

namespace wav::perfbench {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(spans) {
  if (!spans_.enabled_) return;
  index_ = static_cast<int>(spans_.records_.size());
  Record r;
  r.name = name;
  r.parent = spans_.open_.empty() ? -1 : spans_.open_.back();
  r.start_ns = wall_ns();
  spans_.records_.push_back(std::move(r));
  spans_.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  spans_.records_[static_cast<std::size_t>(index_)].end_ns = wall_ns();
  spans_.open_.pop_back();
}

std::map<std::string, Spans::Total> Spans::totals() const {
  std::vector<double> child_ms(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_ms[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    }
  }
  std::map<std::string, Total> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const double ms = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    Total& t = out[r.name];
    ++t.calls;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
  }
  return out;
}

void LatencyDist::add_histogram(const obs::Histogram& h) {
  if (h.count() == 0) return;
  if (counts_.empty()) {
    bounds_ = h.bounds();
    counts_.assign(h.buckets().size(), 0);
    min_ = h.summary().min();
    max_ = h.summary().max();
  }
  for (std::size_t i = 0; i < counts_.size() && i < h.buckets().size(); ++i) {
    counts_[i] += h.buckets()[i];
  }
  min_ = std::min(min_, h.summary().min());
  max_ = std::max(max_, h.summary().max());
}

void LatencyDist::merge(const LatencyDist& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  if (other.counts_.empty()) return;
  if (counts_.empty()) {
    bounds_ = other.bounds_;
    counts_.assign(other.counts_.size(), 0);
    min_ = other.min_;
    max_ = other.max_;
  }
  for (std::size_t i = 0; i < counts_.size() && i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::size_t LatencyDist::count() const {
  std::uint64_t n = samples_.size();
  for (const std::uint64_t c : counts_) n += c;
  return static_cast<std::size_t>(n);
}

double LatencyDist::percentile(double p) const {
  if (!samples_.empty()) {
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
  }
  if (counts_.empty()) return 0;
  return obs::interpolated_percentile(bounds_, counts_, p, min_, max_);
}

void add_link_counts(fabric::Wan& wan, Counts& counts) {
  double packets = 0;
  double drops = 0;
  for (const std::string& name : wan.attachment_names()) {
    for (const fabric::Link* link : wan.access_links(name)) {
      packets += static_cast<double>(link->stats().delivered_packets);
      drops += static_cast<double>(link->stats().dropped_queue);
    }
  }
  counts["fabric.packets"] = packets;
  counts["fabric.queue_drops"] = drops;
}

}  // namespace wav::perfbench

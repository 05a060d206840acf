#include "util/metrics.h"

#include <sstream>

namespace uots {

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked intentionally: usable during static teardown.
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

void MetricsRegistry::Record(const std::string& name, int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name].Record(ns);
}

void MetricsRegistry::Merge(const std::string& name,
                            const LatencyHistogram& h) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name].Merge(h);
}

LatencyHistogram MetricsRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second : LatencyHistogram();
}

HistogramSnapshot MetricsRegistry::GetSnapshot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.TakeSnapshot()
                                 : HistogramSnapshot{};
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricsRegistry::SnapshotAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.emplace_back(name, h.TakeSnapshot());
  }
  return out;
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.push_back(name);
  return out;
}

std::vector<std::pair<std::string, LatencyHistogram>>
MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {histograms_.begin(), histograms_.end()};
}

std::string MetricsRegistry::ToString() const {
  std::ostringstream os;
  for (const auto& [name, h] : Snapshot()) {
    os << name << ": " << h.ToString() << "\n";
  }
  return os.str();
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_.clear();
}

}  // namespace uots

#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int32_t SpanLog::Add(const char* name, const char* layer, int64_t start_ns,
                     int64_t end_ns, int32_t parent, int64_t request,
                     int32_t track) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_ns = start_ns;
  s.end_ns = std::max(start_ns, end_ns);
  s.parent = parent;
  s.request = request;
  s.track = parent >= 0 ? spans_[static_cast<size_t>(parent)].track : track;
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

int32_t SpanLog::AddPlaced(const char* name, const char* layer,
                           int64_t dur_ns, int32_t parent,
                           int64_t* cursor_ns) {
  const Span& p = spans_[static_cast<size_t>(parent)];
  const int64_t start = std::min(*cursor_ns, p.end_ns);
  const int64_t end = std::min(start + std::max<int64_t>(dur_ns, 0), p.end_ns);
  *cursor_ns = end;
  return Add(name, layer, start, end, parent, p.request);
}

std::vector<int64_t> SpanLog::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;
    for (const auto& [b, e] : iv) {
      const int64_t cb = std::max(b, spans_[i].start_ns);
      const int64_t ce = std::min(e, spans_[i].end_ns);
      if (ce <= cb) continue;
      if (cb > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = cb;
        run_end = ce;
      } else {
        run_end = std::max(run_end, ce);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = spans_[i].end_ns - spans_[i].start_ns - covered;
  }
  return self;
}

std::string SpanLog::ToChromeJson() const {
  int64_t origin = 0;
  if (!spans_.empty()) {
    origin = spans_.front().start_ns;
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"request\":%lld}}",
                  i == 0 ? "" : ",\n", s.name, s.layer, s.track,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, static_cast<long long>(s.request));
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench

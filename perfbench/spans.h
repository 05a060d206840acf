// In-memory span log of the traced run.
//
// Spans are recorded by the driver's own code: around each wire call, and
// around each in-process call into a layer's public functions. A wire
// call's children are the server-reported intervals (queue wait, execute
// and the engine phases inside it) and in-process replays of the reactor's
// own calls on the same bytes (parse, cache key, cache probe, encode).
// Those children carry measured durations but not measured offsets, so
// they are laid out back to back inside their parent and clipped to it; a
// layer's self time does not depend on that placement.

#ifndef UOTS_PERFBENCH_SPANS_H_
#define UOTS_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   ///< static string
  const char* layer = "";  ///< static string: storage, oracle, core, ...
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;     ///< index into the log, -1 for a root
  int64_t request = -1;    ///< request (op) id, -1 outside requests
  int32_t track = 0;       ///< Chrome trace thread lane
};

class SpanLog {
 public:
  /// Appends a span and returns its index.
  int32_t Add(const char* name, const char* layer, int64_t start_ns,
              int64_t end_ns, int32_t parent = -1, int64_t request = -1,
              int32_t track = 0);

  /// \brief Lays a child of `parent` of length `dur_ns` right after the
  /// cursor, clipped to the parent's end, and advances the cursor.
  int32_t AddPlaced(const char* name, const char* layer, int64_t dur_ns,
                    int32_t parent, int64_t* cursor_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its length minus the union of its children.
  std::vector<int64_t> SelfTimes() const;

  /// Chrome trace_event JSON ("ph":"X" complete events, microseconds),
  /// loadable in chrome://tracing and ui.perfetto.dev.
  std::string ToChromeJson() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // UOTS_PERFBENCH_SPANS_H_

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark runs. Spans are
// recorded by the benchmark around the public calls it makes into each
// layer, kept in per-thread buffers (no locking on the record path) and
// flattened when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline constexpr int64_t kNoParent = -1;

/// One recorded interval. `name` is a string literal (the layer name);
/// `parent` is the id of the span that caused it, or kNoParent; spans of
/// one request share `request`.
struct Span {
  int64_t id = 0;
  int64_t parent = kNoParent;
  int64_t request = 0;
  const char* name = "";
  int thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Span recorder with one buffer per thread index. Thread index t may only
/// be written by one thread at a time (the scan pool's thread indices give
/// exactly that); ids encode (thread, position) so parents recorded on
/// another thread can be named before the child exists.
class Tracer {
 public:
  explicit Tracer(int threads);

  /// Opens a span starting now; Close(id) ends it.
  int64_t Open(int thread, const char* name, int64_t parent,
               int64_t request);
  void Close(int64_t id);

  /// Records a finished span.
  int64_t Add(int thread, const char* name, int64_t parent, int64_t request,
              int64_t start_ns, int64_t end_ns);

  /// Every span recorded so far, in id order per thread.
  std::vector<Span> Spans() const;

 private:
  Span& At(int64_t id);

  std::vector<std::vector<Span>> buffers_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children clipped to
/// the parent; overlapping children are counted once). Indexed like
/// `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per span name: summed self time, summed duration and span count.
struct LayerTime {
  int64_t self_ns = 0;
  int64_t total_ns = 0;
  int64_t spans = 0;
};
std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans);

/// Writes the spans as CSV (id,parent,request,thread,name,start_ns,end_ns).
bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

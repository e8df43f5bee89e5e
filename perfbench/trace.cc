#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr int kThreadShift = 40;

int64_t MakeId(int thread, size_t index) {
  return (static_cast<int64_t>(thread) << kThreadShift) |
         static_cast<int64_t>(index);
}

}  // namespace

Tracer::Tracer(int threads) : buffers_(static_cast<size_t>(threads)) {
  for (std::vector<Span>& b : buffers_) b.reserve(1 << 14);
}

int64_t Tracer::Open(int thread, const char* name, int64_t parent,
                     int64_t request) {
  const int64_t now = NowNs();
  return Add(thread, name, parent, request, now, now);
}

void Tracer::Close(int64_t id) { At(id).end_ns = NowNs(); }

int64_t Tracer::Add(int thread, const char* name, int64_t parent,
                    int64_t request, int64_t start_ns, int64_t end_ns) {
  std::vector<Span>& buffer = buffers_[static_cast<size_t>(thread)];
  Span span;
  span.id = MakeId(thread, buffer.size());
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.thread = thread;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  buffer.push_back(span);
  return span.id;
}

Span& Tracer::At(int64_t id) {
  const size_t thread = static_cast<size_t>(id >> kThreadShift);
  const size_t index =
      static_cast<size_t>(id & ((int64_t{1} << kThreadShift) - 1));
  return buffers_[thread][index];
}

std::vector<Span> Tracer::Spans() const {
  std::vector<Span> all;
  for (const std::vector<Span>& b : buffers_) {
    all.insert(all.end(), b.begin(), b.end());
  }
  return all;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Children's intervals, clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const auto it = index_of.find(s.parent);
    if (it == index_of.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& c = covered[i];
    std::sort(c.begin(), c.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : c) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - union_ns;
  }
  return self;
}

std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& l = layers[spans[i].name];
    l.self_ns += self[i];
    l.total_ns += spans[i].duration_ns();
    ++l.spans;
  }
  return layers;
}

bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,request,thread,name,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%lld,%lld,%lld,%d,%s,%lld,%lld\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.thread, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

// Tests of the benchmark's own arithmetic: the tail percentile, due-time
// latency at a fixed number of requests in flight, span self time and the
// error-rate denominator.
// Exits non-zero on the first failed check.
//
//   python3 perfbench/run.py --selftest
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "in_flight.h"
#include "stats.h"
#include "trace.h"

namespace {

int checks = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    ++checks;                                                         \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b, double eps = 1e-9) {
  return std::fabs(a - b) <= eps;
}

void TestTailPercentile() {
  using perfbench::TailPercentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  perfbench::Tail t = TailPercentile(v);
  // Exactly ten samples (91..100) lie above the reported one.
  CHECK(Near(t.value, 90));
  CHECK(Near(t.percentile, 90));
  CHECK(t.samples == 100);

  v.assign(1000, 0);
  for (int i = 0; i < 1000; ++i) v[i] = i;
  t = TailPercentile(v);
  CHECK(Near(t.value, 989));  // 990..999 are the ten beyond it
  CHECK(Near(t.percentile, 99));

  v = {5, 1, 3};
  t = TailPercentile(v);  // too few samples: the maximum, at 100
  CHECK(Near(t.value, 5));
  CHECK(Near(t.percentile, 100));

  v.assign(11, 7);
  v[0] = 1;
  t = TailPercentile(v);
  CHECK(Near(t.value, 1));
  CHECK(Near(t.percentile, 100.0 / 11));

  CHECK(TailPercentile({}).samples == 0);
  CHECK(Near(perfbench::Median({4, 1, 3, 2}), 2.5));
  CHECK(Near(perfbench::Geomean({2, 8}), 4, 1e-12));
}

/// A generator stall must be charged to every request it delays: requests
/// whose slot freed during the stall are sent late, and their latency
/// counts from when the slot freed, not from the late send.
void TestDueTimeLatency() {
  using perfbench::NowNs;
  constexpr size_t kInFlight = 4;
  constexpr size_t kStalled = 10;
  constexpr int64_t kStallNs = 60'000'000;  // 60 ms
  perfbench::Completions completions;
  int64_t stall_start = 0;
  int64_t stall_end = 0;
  // The system answers each request at once, except the stalled submit
  // call, which blocks the generator before answering.
  const std::vector<perfbench::Sent> sent = perfbench::RunInFlight(
      kInFlight, NowNs() + 100'000'000, completions, [&](size_t i) {
        if (i == kStalled) {
          stall_start = NowNs();
          std::this_thread::sleep_for(std::chrono::nanoseconds(kStallNs));
          stall_end = NowNs();
        }
        completions.Done(i);
      });
  CHECK(sent.size() > kStalled + kInFlight);
  const std::vector<int64_t> done = completions.WaitAll(sent.size());
  const std::vector<double> latency = perfbench::DueLatenciesMs(sent, done);
  // The first kInFlight requests are due when the window opens; every
  // later one when an earlier answer freed its slot.
  for (size_t i = 0; i < kInFlight; ++i) {
    CHECK(sent[i].due_ns == sent[0].due_ns);
  }
  for (size_t i = kInFlight; i < sent.size(); ++i) {
    CHECK(sent[i].due_ns >= sent[i - kInFlight].sent_ns);
    CHECK(sent[i].sent_ns >= sent[i].due_ns);
  }
  // The stalled request itself is late by the whole stall.
  CHECK(latency[kStalled] >= kStallNs / 1e6);
  // Slots freed before the stall were refilled only after it: those
  // requests waited out the rest of the stall, although each was
  // answered at once once sent.
  int delayed = 0;
  for (size_t i = kStalled + 1; i < sent.size(); ++i) {
    const perfbench::Sent& s = sent[i];
    if (s.due_ns >= stall_start) continue;
    ++delayed;
    CHECK(s.sent_ns >= stall_end);
    CHECK(latency[i] >= static_cast<double>(stall_end - s.due_ns) / 1e6);
    CHECK(done[i] - s.sent_ns < kStallNs / 4);
  }
  CHECK(delayed == static_cast<int>(kInFlight) - 1);
}

void TestSelfTime() {
  perfbench::Tracer tracer(2);
  const int64_t root = tracer.Add(0, "root", perfbench::kNoParent, 1, 0, 100);
  // Overlapping children on two threads, one running past the parent.
  const int64_t a = tracer.Add(0, "a", root, 1, 10, 30);
  const int64_t b = tracer.Add(1, "b", root, 1, 20, 50);
  tracer.Add(1, "c", root, 1, 90, 120);
  tracer.Add(0, "d", b, 1, 25, 35);  // grandchild
  tracer.Add(0, "other", perfbench::kNoParent, 2, 0, 10);
  const std::vector<perfbench::Span> spans = tracer.Spans();
  CHECK(spans.size() == 6);
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id == root) CHECK(self[i] == 100 - (40 + 10));
    if (spans[i].id == a) CHECK(self[i] == 20);
    if (spans[i].id == b) CHECK(self[i] == 30 - 10);
  }
  const std::map<std::string, perfbench::LayerTime> by_name =
      perfbench::LayerTimes(spans);
  CHECK(by_name.at("c").self_ns == 30);
  CHECK(by_name.at("d").self_ns == 10);
  CHECK(by_name.at("other").self_ns == 10);
  CHECK(by_name.at("root").total_ns == 100 && by_name.at("root").spans == 1);

  // Sequential children: parent self plus the children's durations is the
  // parent's wall time.
  perfbench::Tracer seq(1);
  const int64_t q = seq.Add(0, "query", perfbench::kNoParent, 7, 1000, 2000);
  seq.Add(0, "create", q, 7, 1010, 1100);
  seq.Add(0, "scan", q, 7, 1100, 1900);
  seq.Add(0, "finish", q, 7, 1900, 1990);
  const std::map<std::string, perfbench::LayerTime> t =
      perfbench::LayerTimes(seq.Spans());
  CHECK(t.at("query").self_ns + t.at("create").self_ns +
            t.at("scan").self_ns + t.at("finish").self_ns ==
        1000);
  CHECK(t.at("query").self_ns == 20);

  // Open/Close record a real interval.
  perfbench::Tracer live(1);
  const int64_t open = live.Open(0, "live", perfbench::kNoParent, 3);
  live.Close(open);
  const perfbench::Span s = live.Spans().at(0);
  CHECK(s.id == open && s.end_ns >= s.start_ns && s.request == 3);
}

void TestErrorRate() {
  perfbench::FailureCounts c;
  CHECK(perfbench::ErrorRate(c) == 0);
  c.attempted = 200;
  c.errors = 1;
  c.rejected = 2;
  c.timed_out = 3;
  c.wrong = 4;
  CHECK(c.failed() == 10);
  // Every attempt is in the denominator, the failed ones included.
  CHECK(Near(perfbench::ErrorRate(c), 10.0 / 200));
  c = perfbench::FailureCounts();
  c.attempted = 4;
  c.rejected = 4;
  CHECK(Near(perfbench::ErrorRate(c), 1));
}

}  // namespace

int main() {
  TestTailPercentile();
  TestDueTimeLatency();
  TestSelfTime();
  TestErrorRate();
  std::printf("perfbench_selftest: %d checks passed\n", checks);
  return 0;
}

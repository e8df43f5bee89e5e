#ifndef PERFBENCH_IN_FLIGHT_H_
#define PERFBENCH_IN_FLIGHT_H_

// Fixed-concurrency load generation: a single generator thread keeps a
// fixed number of requests in flight and sends the next one as soon as an
// answer frees a slot. A request is due when its slot frees (the first
// `in_flight` requests when the window opens), and latency is timed from
// the due time, so a stall of the generator itself is charged to every
// request it delays.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Answers of one window. Done(i) may be called from any thread; the
/// generator waits on it for freed slots.
class Completions {
 public:
  void Done(size_t request) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    done_.emplace_back(request, now);
    cv_.notify_all();
  }

  /// Blocks until the next slot frees and returns when it freed.
  int64_t WaitFreed() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return freed_ < done_.size(); });
    return done_[freed_++].second;
  }

  /// Blocks until `count` answers arrived; returns each request's answer
  /// time, by request index.
  std::vector<int64_t> WaitAll(size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, count] { return done_.size() >= count; });
    std::vector<int64_t> done_ns(count, 0);
    for (const auto& [request, ns] : done_) done_ns[request] = ns;
    return done_ns;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<size_t, int64_t>> done_;  // in answer order
  size_t freed_ = 0;  // answers the generator has reused as slots
};

/// What the generator observed for one request.
struct Sent {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;       // when the generator got to it
  int64_t submitted_ns = 0;  // when the submit call returned
};

/// Keeps `in_flight` requests outstanding by calling submit(i) from the
/// calling thread, the only generator, until `end_ns`; whoever answers
/// request i calls completions.Done(i). Returns once the last request was
/// sent (not answered); its size is the number of requests sent.
template <typename Submit>
std::vector<Sent> RunInFlight(size_t in_flight, int64_t end_ns,
                              Completions& completions, Submit&& submit) {
  std::vector<Sent> sent;
  const int64_t start_ns = NowNs();
  for (size_t i = 0; NowNs() < end_ns; ++i) {
    Sent s;
    s.due_ns = i < in_flight ? start_ns : completions.WaitFreed();
    s.sent_ns = NowNs();
    submit(i);
    s.submitted_ns = NowNs();
    sent.push_back(s);
  }
  return sent;
}

/// Per-request latency in ms from the due time to `done_ns[i]`.
inline std::vector<double> DueLatenciesMs(const std::vector<Sent>& sent,
                                          const std::vector<int64_t>& done_ns) {
  std::vector<double> ms(sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    ms[i] = static_cast<double>(done_ns[i] - sent[i].due_ns) / 1e6;
  }
  return ms;
}

}  // namespace perfbench

#endif  // PERFBENCH_IN_FLIGHT_H_

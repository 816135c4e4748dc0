#include "spans.hpp"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kTimer: return "timer";
    case Layer::kConsensusRx: return "consensus_rx";
    case Layer::kGossipRx: return "gossip_rx";
    case Layer::kStateRx: return "state_rx";
    case Layer::kFdRx: return "fd_rx";
    case Layer::kOtherRx: return "other_rx";
    case Layer::kSubmit: return "submit";
    case Layer::kRestart: return "restart";
    case Layer::kStoragePut: return "storage_put";
    case Layer::kStorageGet: return "storage_get";
    case Layer::kStorageErase: return "storage_erase";
    case Layer::kStorageScan: return "storage_scan";
    case Layer::kStorageFlush: return "storage_flush";
    case Layer::kApply: return "apply";
    case Layer::kCheckpoint: return "checkpoint";
    case Layer::kCount: break;
  }
  return "?";
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans,
                                 std::size_t begin, std::size_t end) {
  std::vector<SelfTime> out(end - begin);
  std::vector<std::size_t> stack;  // indices into `out` of open ancestors
  for (std::size_t i = begin; i < end; ++i) {
    const Span& s = spans[i];
    while (!stack.empty() && spans[begin + stack.back()].depth >= s.depth) {
      stack.pop_back();
    }
    out[i - begin] = {s.wall_ns, s.cpu_ns};
    if (!stack.empty() && spans[begin + stack.back()].depth + 1 == s.depth) {
      SelfTime& parent = out[stack.back()];
      parent.wall_ns -= s.wall_ns;
      parent.cpu_ns -= s.cpu_ns;
    }
    stack.push_back(i - begin);
  }
  return out;
}

std::int64_t wall_now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "layer\tdepth\tstart_ns\twall_ns\tcpu_ns\targ\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%u\t%lld\t%lld\t%lld\t%u\n", layer_name(s.layer),
                 static_cast<unsigned>(s.depth),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.wall_ns),
                 static_cast<long long>(s.cpu_ns), s.arg);
  }
  std::fclose(f);
}

}  // namespace perfbench

// In-memory span recorder and host-side readings for the traced run.
//
// Spans are recorded only around the benchmark's own calls into the
// program (phases, report, teardown, probes): name, start, end and the
// span that was open when it began. They stay in memory and are written
// out once, as Chrome trace-event JSON, when the traced run ends.
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A field of /proc/self/status in MiB (VmRSS, VmHWM), 0 if unreadable.
inline double proc_status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  const std::string key = std::string(field) + ":";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (key.compare(0, key.size(), line, key.size()) == 0) {
      kb = std::atof(line + key.size());
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  int begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), now_s(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  double end(int id) {
    spans_[id].end = now_s();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
    return duration(id);
  }

  [[nodiscard]] double duration(int id) const {
    return spans_[id].end - spans_[id].start;
  }

  /// The span's duration minus the time its direct children cover.
  [[nodiscard]] double self_time(int id) const {
    double t = duration(id);
    for (const Span& s : spans_) {
      if (s.parent == id) t -= s.end - s.start;
    }
    return t;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds), with
  /// each span's self time and parent index in its args.
  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    const double t0 = spans_.empty() ? 0 : spans_.front().start;
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << (s.start - t0) * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"self_us\":" << self_time(static_cast<int>(i)) * 1e6 << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP

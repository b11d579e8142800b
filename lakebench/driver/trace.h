#ifndef LAKEBENCH_DRIVER_TRACE_H_
#define LAKEBENCH_DRIVER_TRACE_H_

// Span and count recorder for the traced run. The traced run replays a
// sample of a workload's requests serially, so the recorder is
// single-threaded: spans nest through an explicit stack, every span and
// count carries the id of the request it belongs to, and everything stays
// in memory until WriteJsonl() at the end of the run.
//
// A layer's children may also be separate calls on the same input made
// after it returned (EncodeTable replayed for a Starmie query); they name
// the returned span as parent explicitly, and the parent's self time
// (duration minus children) is then an estimate.
//
// Trace file format, one JSON object per line:
//   {"t":"meta","workload":...,"seed":...}
//   {"t":"span","id":7,"parent":6,"req":3,"name":"search.josie",
//    "start_ns":...,"end_ns":...}
//   {"t":"count","span":7,"req":3,"name":"index.josie.postings","value":812}
// Counts with "req":0 and "span":0 are run-level (registry samples).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace lakebench {

class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// RAII span: opens at construction, closes at destruction. Spans opened
  /// while another is open become its children.
  class Span {
   public:
    Span(TraceRecorder* rec, std::string name) : rec_(rec) {
      index_ = rec_->Open(std::move(name), 0);
    }
    /// A span whose parent is `parent_id` rather than the innermost open
    /// span: a separate call on the same input, attributed to a layer call
    /// that has already returned.
    Span(TraceRecorder* rec, std::string name, uint64_t parent_id) : rec_(rec) {
      index_ = rec_->Open(std::move(name), parent_id);
    }
    ~Span() { rec_->Close(index_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// A count attributed to this span.
    void Count(const std::string& name, double value) {
      rec_->CountAt(index_, name, value);
    }

    uint64_t id() const { return rec_->spans_[index_].id; }

   private:
    TraceRecorder* rec_;
    size_t index_ = 0;
  };

  /// Starts a new request; spans opened until the next call belong to it.
  uint64_t BeginRequest() { return ++request_; }

  /// A run-level count (no span, no request).
  void RunCount(const std::string& name, double value) {
    counts_.push_back(CountRecord{0, 0, name, value});
  }

  void SetMeta(std::string meta_json) { meta_ = std::move(meta_json); }

  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"t\":\"meta\",%s}\n", meta_.c_str());
    for (const SpanRecord& s : spans_) {
      std::fprintf(f,
                   "{\"t\":\"span\",\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    for (const CountRecord& c : counts_) {
      std::fprintf(f,
                   "{\"t\":\"count\",\"span\":%llu,\"req\":%llu,"
                   "\"name\":\"%s\",\"value\":%.17g}\n",
                   static_cast<unsigned long long>(c.span),
                   static_cast<unsigned long long>(c.request), c.name.c_str(),
                   c.value);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct SpanRecord {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  struct CountRecord {
    uint64_t span = 0;
    uint64_t request = 0;
    std::string name;
    double value = 0;
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  size_t Open(std::string name, uint64_t parent_id) {
    SpanRecord s;
    s.id = spans_.size() + 1;
    s.parent = parent_id != 0       ? parent_id
               : stack_.empty()     ? 0
                                    : spans_[stack_.back()].id;
    s.request = request_;
    s.name = std::move(name);
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    spans_.back().start_ns = NowNs();
    return spans_.size() - 1;
  }

  void Close(size_t index) {
    spans_[index].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  void CountAt(size_t index, const std::string& name, double value) {
    counts_.push_back(
        CountRecord{spans_[index].id, spans_[index].request, name, value});
  }

  Clock::time_point origin_ = Clock::now();
  uint64_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<size_t> stack_;
  std::vector<CountRecord> counts_;
  std::string meta_;
};

}  // namespace lakebench

#endif  // LAKEBENCH_DRIVER_TRACE_H_

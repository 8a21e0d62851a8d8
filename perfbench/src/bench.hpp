// Shared plumbing of the flexnets benchmark: run options, the result
// record every workload fills, output checks against pinned values, and
// the span tracer. Workloads live in packet.cpp and fluid.cpp; main.cpp
// parses flags, dispatches and prints the result.
//
// Every call into the library is made from this benchmark's own code and
// wrapped in a Tracer span. Spans always measure their wall and CPU
// duration (the end-to-end metrics read the CPU one); only a traced run
// records them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Size { kPaper, kTiny };

// Workers for the parallel parts (PDES, GK sweeps): two, so that on a
// shared 4-core host the numbers measure the program, not the scheduler.
inline constexpr int kThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // measurement window of one run
  bool trace = false;
  Size size = Size::kPaper;
  std::string pins_path;
  std::string trace_out;  // Chrome trace-event JSON (traced runs)
  bool print_pins = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[nodiscard]] const char* size_name(Size s);

// Host monotonic clock in seconds; the CPU time of the process (all its
// threads, joined ones included) and of the calling thread, in seconds;
// and the process peak resident set (VmHWM) in MB. CPU time leaves out the
// time other processes ran in its place and, on a guest with paravirtual
// steal-time accounting, the time the host ran other guests on its vCPUs.
[[nodiscard]] double now_s();
[[nodiscard]] double cpu_now_s();
[[nodiscard]] double thread_cpu_now_s();
[[nodiscard]] double peak_rss_mb();

// Returns the heap's free memory to the system (glibc malloc_trim), then
// lowers the process's VmHWM to the resident set that is left (Linux
// /proc/self/clear_refs), so that the next peak_rss_mb() reads the peak
// since this call rather than memory an earlier operation freed.
void reset_peak_rss();

[[nodiscard]] double median(std::vector<double> v);

// Prints "<what>: n=<count> min=... median=... max=..." to standard error.
void note_samples(const char* what, const std::vector<double>& v);

// An untraced run rotates over several input instances, so that one
// wiring's quirks do not set its timing: instance 0 is drawn from the
// run's seed itself, instance i > 0 from the sub-seed hash_words(seed, i).
[[nodiscard]] std::uint64_t instance_seed(std::uint64_t seed, int instance);

// A rotated run's op_cpu_s and peak_rss_mb: the mean over instances of
// each one's median.
[[nodiscard]] double mean_of_medians(
    const std::vector<std::vector<double>>& samples);

// Exact textual form of a double (hex float), for bit-exact pins.
[[nodiscard]] std::string exact(double v);

// ---------------------------------------------------------------------------
// Result record.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Outcome {
 public:
  // Sets a metric; a later call with the same name replaces the value.
  void metric(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  // Counts one checked operation (a simulation, a GK point or a bracket);
  // it fails when `problems` is non-empty.
  void op(const std::vector<std::string>& problems);
  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] int failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

  // Observed values of the run's first operation, in pin-file form.
  std::vector<std::string> pin_lines;

 private:
  std::vector<Metric> metrics_;
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Output checks.

// Named observed values of one operation, exact text (see exact()).
using Observed = std::map<std::string, std::string>;

// Pinned outputs: lines "<group> <size> <seed> <key> <value>" ('#' starts a
// comment). Only the entries for one (group, size, seed) are kept.
class Pins {
 public:
  // A missing file yields no pins; a malformed line is an error.
  static std::optional<Pins> load(const std::string& path,
                                  const std::string& group, Size size,
                                  std::uint64_t seed, std::string* error);
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] const Observed& values() const { return values_; }

 private:
  Observed values_;
};

// Collects the problems of one operation.
class Check {
 public:
  void expect(bool ok, const std::string& what);
  // Every key of `want` must be present in `got` with exactly that text.
  void same(const Observed& got, const Observed& want, const std::string& ref);
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }

 private:
  std::vector<std::string> problems_;
};

std::vector<std::string> pin_lines(const std::string& group, Size size,
                                   std::uint64_t seed, const Observed& obs);

// ---------------------------------------------------------------------------
// Tracing.

class Tracer {
 public:
  explicit Tracer(bool recording) : recording_(recording) {}

  // RAII span around one call. Always timed, on the wall clock and in
  // process and thread CPU time; recorded (name, start, end, parent) only
  // while the tracer is recording. Spans of a tracer that is not recording
  // may be opened on several threads at once.
  class Span {
   public:
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    // Ends the span early; returns its wall duration in seconds.
    double close();
    // End the span if still open; return the CPU seconds it took in the
    // whole process, or in the thread that opened it.
    double cpu_s();
    double thread_cpu_s();

   private:
    friend class Tracer;
    Span(Tracer* t, int index);
    Tracer* tracer_;
    int index_;  // record slot, -1 when not recording
    double start_;
    double cpu_start_;
    double thread_cpu_start_;
    double seconds_ = -1.0;
    double cpu_seconds_ = -1.0;
    double thread_cpu_seconds_ = -1.0;
  };

  [[nodiscard]] Span span(const std::string& name);

  [[nodiscard]] bool recording() const { return recording_; }
  void set_recording(bool on) { recording_ = on; }

  // Over recorded spans of one name: the duration of the first one recorded
  // at or after record index `since`, the summed duration, and the self time
  // (the part of each span its child spans do not cover).
  [[nodiscard]] double first_s(const std::string& name,
                               std::size_t since = 0) const;
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] std::map<std::string, double> self_times() const;
  [[nodiscard]] std::size_t num_spans() const { return recs_.size(); }

  // Writes the recorded spans as Chrome trace-event JSON ("X" events, one
  // per span, parent index in args); `other_data` is a JSON object placed
  // under the top-level "otherData" key. Returns false on I/O failure.
  bool write_chrome(const std::string& path,
                    const std::string& other_data) const;

 private:
  struct Rec {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    int parent = -1;
  };
  void end(int index, double t);

  bool recording_;
  std::vector<Rec> recs_;
  std::vector<int> open_;  // stack of open recorded spans
};

// ---------------------------------------------------------------------------
// Workloads. Each fills `out` with the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run), and counts its operations.

void run_packet(const Options& opts, Tracer& tr, Outcome& out);
void run_fluid(const Options& opts, Tracer& tr, Outcome& out);
void run_bracket(const Options& opts, Tracer& tr, Outcome& out);

}  // namespace perfbench

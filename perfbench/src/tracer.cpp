#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double cpu_now_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_now_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

Tracer::Span Tracer::span(const std::string& name) {
  int index = -1;
  if (recording_) {
    index = static_cast<int>(recs_.size());
    Rec r;
    r.name = name;
    r.parent = open_.empty() ? -1 : open_.back();
    recs_.push_back(std::move(r));
    open_.push_back(index);
  }
  return Span(this, index);
}

Tracer::Span::Span(Tracer* t, int index)
    : tracer_(t),
      index_(index),
      start_(now_s()),
      cpu_start_(cpu_now_s()),
      thread_cpu_start_(thread_cpu_now_s()) {
  if (index_ >= 0) t->recs_[static_cast<std::size_t>(index_)].start = start_;
}

double Tracer::Span::close() {
  if (seconds_ < 0.0) {
    const double t = now_s();
    cpu_seconds_ = cpu_now_s() - cpu_start_;
    thread_cpu_seconds_ = thread_cpu_now_s() - thread_cpu_start_;
    seconds_ = t - start_;
    if (index_ >= 0) tracer_->end(index_, t);
  }
  return seconds_;
}

double Tracer::Span::cpu_s() {
  close();
  return cpu_seconds_;
}

double Tracer::Span::thread_cpu_s() {
  close();
  return thread_cpu_seconds_;
}

void Tracer::end(int index, double t) {
  recs_[static_cast<std::size_t>(index)].end = t;
  // Spans close in LIFO order; tolerate an early close() of an outer span
  // by dropping everything opened inside it too.
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

double Tracer::total_s(const std::string& name) const {
  double sum = 0.0;
  for (const auto& r : recs_) {
    if (r.name == name && r.end >= 0.0) sum += r.end - r.start;
  }
  return sum;
}

double Tracer::first_s(const std::string& name, std::size_t since) const {
  for (std::size_t i = since; i < recs_.size(); ++i) {
    const auto& r = recs_[i];
    if (r.name == name && r.end >= 0.0) return r.end - r.start;
  }
  return 0.0;
}

std::map<std::string, double> Tracer::self_times() const {
  std::vector<double> self(recs_.size(), 0.0);
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const auto& r = recs_[i];
    if (r.end < 0.0) continue;
    self[i] += r.end - r.start;
    if (r.parent >= 0) self[static_cast<std::size_t>(r.parent)] -= r.end - r.start;
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < recs_.size(); ++i) by_name[recs_[i].name] += self[i];
  return by_name;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& other_data) const {
  std::ofstream f(path);
  if (!f) return false;
  const double origin = recs_.empty() ? 0.0 : recs_.front().start;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const auto& r = recs_[i];
    if (r.end < 0.0) continue;
    // Span names are benchmark-chosen identifiers: no JSON escaping needed.
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                  (r.start - origin) * 1e6, (r.end - r.start) * 1e6);
    f << (i == 0 ? "" : ",") << "\n{\"name\":\"" << r.name << "\",\"cat\":\""
      << r.name.substr(0, r.name.find('.')) << "\"," << buf
      << "\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
  }
  f << "\n],\"otherData\":" << other_data << "}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {

const char* size_name(Size s) { return s == Size::kTiny ? "tiny" : "paper"; }

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void note_samples(const char* what, const std::vector<double>& v) {
  if (v.empty()) return;
  std::fprintf(stderr, "%s: n=%zu min=%.6g median=%.6g max=%.6g\n", what,
               v.size(), *std::min_element(v.begin(), v.end()), median(v),
               *std::max_element(v.begin(), v.end()));
}

std::uint64_t instance_seed(std::uint64_t seed, int instance) {
  return instance == 0
             ? seed
             : flexnets::hash_words(seed, static_cast<std::uint64_t>(instance));
}

double mean_of_medians(const std::vector<std::vector<double>>& samples) {
  double sum = 0.0;
  int n = 0;
  for (const auto& s : samples) {
    if (s.empty()) continue;
    sum += median(s);
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void Outcome::metric(const std::string& name, double value,
                     const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit};
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Outcome::op(const std::vector<std::string>& problems) {
  ++attempted_;
  if (problems.empty()) return;
  ++failed_;
  errors_.insert(errors_.end(), problems.begin(), problems.end());
}

std::optional<Pins> Pins::load(const std::string& path,
                               const std::string& group, Size size,
                               std::uint64_t seed, std::string* error) {
  Pins pins;
  std::ifstream f(path);
  if (!f) return pins;
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream in(line);
    std::string g, sz, key, value, extra;
    std::uint64_t s = 0;
    if (!(in >> g)) continue;  // blank or comment-only
    if (!(in >> sz >> s >> key >> value) || (in >> extra)) {
      *error = path + ":" + std::to_string(lineno) +
               ": expected '<group> <size> <seed> <key> <value>'";
      return std::nullopt;
    }
    if (g == group && sz == size_name(size) && s == seed) {
      pins.values_[key] = value;
    }
  }
  return pins;
}

void Check::expect(bool ok, const std::string& what) {
  if (!ok) problems_.push_back(what);
}

void Check::same(const Observed& got, const Observed& want,
                 const std::string& ref) {
  for (const auto& [key, value] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      problems_.push_back(key + " missing (" + ref + " has " + value + ")");
    } else if (it->second != value) {
      problems_.push_back(key + " = " + it->second + ", " + ref + " has " +
                          value);
    }
  }
}

std::vector<std::string> pin_lines(const std::string& group, Size size,
                                   std::uint64_t seed, const Observed& obs) {
  std::vector<std::string> lines;
  for (const auto& [key, value] : obs) {
    lines.push_back(group + " " + size_name(size) + " " +
                    std::to_string(seed) + " " + key + " " + value);
  }
  return lines;
}

}  // namespace perfbench

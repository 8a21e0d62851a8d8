#include "topo/io.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

namespace flexnets::topo {

namespace {

// Line-oriented reader so every diagnostic can name the 1-based line it
// came from (the stream-extraction parser this replaces could only say
// "bad input somewhere").
struct LineReader {
  std::istream& in;
  int line_no = 0;

  // False at end of input; the caller reports the truncation.
  bool next(std::string& out) {
    if (!std::getline(in, out)) return false;
    if (!out.empty() && out.back() == '\r') out.pop_back();
    ++line_no;
    return true;
  }
};

// Splits on spaces/tabs; empty tokens are dropped.
std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) toks.push_back(std::move(t));
  return toks;
}

// Strict integer parse: the whole token must be one base-10 integer, so a
// non-integer degree like "3.5" or "x" is a diagnosed error, not a silent
// truncation.
bool parse_int(const std::string& tok, long long* out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size()) return false;
  *out = v;
  return true;
}

}  // namespace

void write_text(std::ostream& out, const Topology& t) {
  out << "flexnets-topology 1\n";
  out << "name " << (t.name.empty() ? "(unnamed)" : t.name) << "\n";
  out << "switches " << t.num_switches() << "\n";
  out << "servers";
  for (const int s : t.servers_per_switch()) out << " " << s;
  out << "\n";
  out << "links " << t.g.num_edges() << "\n";
  for (const auto& e : t.g.edges()) out << e.a << " " << e.b << "\n";
}

std::string to_text(const Topology& t) {
  std::ostringstream out;
  write_text(out, t);
  return out.str();
}

StatusOr<Topology> read_text(std::istream& in) {
  LineReader r{in};
  std::string line;

  if (!r.next(line) || tokens_of(line) !=
                           std::vector<std::string>{"flexnets-topology", "1"}) {
    return invalid_input_error("line ", r.line_no == 0 ? 1 : r.line_no,
                               ": bad header (expected 'flexnets-topology 1')");
  }

  if (!r.next(line)) {
    return invalid_input_error("line ", r.line_no + 1,
                               ": unexpected end of file (expected 'name ...')");
  }
  if (line.rfind("name ", 0) != 0) {
    return invalid_input_error("line ", r.line_no, ": expected 'name <string>'");
  }
  std::string name = line.substr(5);

  if (!r.next(line)) {
    return invalid_input_error(
        "line ", r.line_no + 1,
        ": unexpected end of file (expected 'switches <n>')");
  }
  long long n = 0;
  {
    const auto toks = tokens_of(line);
    if (toks.size() != 2 || toks[0] != "switches" || !parse_int(toks[1], &n) ||
        n < 0) {
      return invalid_input_error("line ", r.line_no,
                                 ": expected 'switches <n>' with n >= 0, got '",
                                 line, "'");
    }
  }

  if (!r.next(line)) {
    return invalid_input_error(
        "line ", r.line_no + 1,
        ": unexpected end of file (expected 'servers ...')");
  }
  std::vector<int> servers;
  {
    const auto toks = tokens_of(line);
    if (toks.empty() || toks[0] != "servers") {
      return invalid_input_error("line ", r.line_no,
                                 ": expected 'servers <count per switch>'");
    }
    if (static_cast<long long>(toks.size()) - 1 != n) {
      return invalid_input_error("line ", r.line_no, ": expected ", n,
                                 " server counts, got ", toks.size() - 1);
    }
    servers.resize(static_cast<std::size_t>(n));
    long long total = 0;
    for (long long i = 0; i < n; ++i) {
      long long s = 0;
      if (!parse_int(toks[static_cast<std::size_t>(i + 1)], &s) || s < 0) {
        return invalid_input_error(
            "line ", r.line_no, ": server count for switch ", i,
            " is not a non-negative integer: '",
            toks[static_cast<std::size_t>(i + 1)], "'");
      }
      // Servers are numbered with int ids.
      if (s > std::numeric_limits<int>::max() - total) {
        return invalid_input_error("line ", r.line_no, ": more than ",
                                   std::numeric_limits<int>::max(),
                                   " servers in all");
      }
      total += s;
      servers[static_cast<std::size_t>(i)] = static_cast<int>(s);
    }
  }

  if (!r.next(line)) {
    return invalid_input_error(
        "line ", r.line_no + 1,
        ": unexpected end of file (expected 'links <m>')");
  }
  long long m = 0;
  {
    const auto toks = tokens_of(line);
    if (toks.size() != 2 || toks[0] != "links" || !parse_int(toks[1], &m) ||
        m < 0) {
      return invalid_input_error("line ", r.line_no,
                                 ": expected 'links <m>' with m >= 0, got '",
                                 line, "'");
    }
  }

  std::vector<graph::Edge> links;
  std::set<std::pair<long long, long long>> seen;
  for (long long i = 0; i < m; ++i) {
    if (!r.next(line)) {
      return invalid_input_error("line ", r.line_no + 1,
                                 ": unexpected end of file (expected link ", i,
                                 " of ", m, ")");
    }
    const auto toks = tokens_of(line);
    long long a = 0;
    long long b = 0;
    if (toks.size() != 2 || !parse_int(toks[0], &a) ||
        !parse_int(toks[1], &b)) {
      return invalid_input_error("line ", r.line_no, ": link ", i,
                                 " is not '<a> <b>': '", line, "'");
    }
    if (a < 0 || b < 0 || a >= n || b >= n) {
      return invalid_input_error("line ", r.line_no, ": link ", i,
                                 " endpoint out of range [0, ", n, "): ", a,
                                 " ", b);
    }
    if (a == b) {
      return invalid_input_error("line ", r.line_no, ": link ", i,
                                 " is a self-loop at switch ", a);
    }
    if (!seen.insert(std::minmax(a, b)).second) {
      return invalid_input_error("line ", r.line_no, ": duplicate link ", a,
                                 " ", b);
    }
    links.push_back({static_cast<int>(a), static_cast<int>(b)});
  }
  return Topology(std::move(name),
                  graph::Graph(static_cast<int>(n), std::move(links)),
                  std::move(servers));
}

StatusOr<Topology> from_text(const std::string& text) {
  std::istringstream in(text);
  return read_text(in);
}

std::string to_dot(const Topology& t) {
  std::ostringstream out;
  out << "graph \"" << t.name << "\" {\n  node [shape=box];\n";
  for (graph::NodeId s = 0; s < t.num_switches(); ++s) {
    out << "  s" << s << " [label=\"s" << s;
    if (t.servers_per_switch()[s] > 0) {
      out << " (+" << t.servers_per_switch()[s] << " srv)";
    }
    out << "\"];\n";
  }
  for (const auto& e : t.g.edges()) {
    out << "  s" << e.a << " -- s" << e.b << ";\n";
  }
  out << "}\n";
  return out.str();
}

Status save_topology(const std::string& path, const Topology& t) {
  std::ofstream out(path);
  if (!out) return invalid_input_error("cannot open ", path, " for writing");
  write_text(out, t);
  if (!out) return invalid_input_error("write to ", path, " failed");
  return {};
}

StatusOr<Topology> load_topology(const std::string& path) {
  std::ifstream in(path);
  if (!in) return invalid_input_error("cannot open ", path);
  auto t = read_text(in);
  if (!t.ok()) {
    return invalid_input_error(path, ": ", t.status().message());
  }
  return t;
}

}  // namespace flexnets::topo

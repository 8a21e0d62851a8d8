// Ports of the seven rules of the retired regex lint onto the token stream.
//
// Matching on tokens (not text lines) removes the regex lint's structural
// blind spots: comments, string/char literals, and raw strings can no
// longer trip a rule, and `std::thread` split across lines still matches.
// The unordered-iter rule additionally goes cross-TU: container names are
// collected over the whole corpus (including class fields declared in
// headers), so iteration in a .cpp over a field declared in a .hpp is
// visible — something the per-file regex could never see.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis.hpp"

namespace flexnets::analyze {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool file_exempt(const FileData& f, const char* const* suffixes,
                 std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    if (ends_with(f.rel_path, suffixes[k])) return true;
  }
  return false;
}

// The sanctioned homes, mirrored from the retired Python lint.
const char* const kRawThreadExempt[] = {"common/thread_pool.hpp",
                                        "common/thread_pool.cpp"};
const char* const kHardExitExempt[] = {"common/check.cpp",
                                       "common/status.cpp"};
const char* const kPriorityQueueExempt[] = {
    "sim/event_queue.hpp", "sim/event_queue.cpp",
    "flow/solver_internals.hpp", "flow/solver_internals.cpp"};
// The one file allowed to touch raw process APIs: everything else must
// go through ProcessSupervisor so fd hygiene (O_CLOEXEC, dup2 re-homing),
// PDEATHSIG, SIGPIPE handling, and reaping stay in a single audited place.
const char* const kProcessApiExempt[] = {"sweep/process_supervisor.cpp"};

// Raw process-control calls banned outside the supervisor.
const char* const kProcessApiNames[] = {
    "fork",   "vfork",       "execv", "execve", "execvp",      "execvpe",
    "execl",  "execle",      "execlp", "posix_spawn", "posix_spawnp",
    "waitpid", "wait3",      "wait4", "kill",   "killpg",      "raise",
    "system", "popen",       "daemon"};

bool is_process_api_name(const std::string& s) {
  for (const char* name : kProcessApiNames) {
    if (s == name) return true;
  }
  return false;
}

const char* rule_message(const std::string& rule) {
  if (rule == "raw-rng") {
    return "raw libc/std randomness; use the seeded splittable Rng "
           "(src/common/rng.hpp) so runs replay from one seed";
  }
  if (rule == "wall-clock") {
    return "wall-clock read inside simulation code; use simulated TimeNs "
           "(src/common/units.hpp)";
  }
  if (rule == "time-float-eq") {
    return "exact ==/!= on floating-point simulated time; compare integer "
           "TimeNs or use an epsilon";
  }
  if (rule == "unordered-iter") {
    return "iteration over an unordered container feeds "
           "implementation-defined order into deterministic output; "
           "iterate a sorted container instead";
  }
  if (rule == "raw-thread") {
    return "raw std::thread outside common/thread_pool; route parallel "
           "work through ThreadPool / core::run_indexed (exception "
           "propagation, drain-on-destruction, deterministic indexed "
           "scheduling)";
  }
  if (rule == "process-api") {
    return "raw process API (fork/exec/waitpid/kill/...) outside "
           "sweep/process_supervisor.cpp; route subprocess work through "
           "ProcessSupervisor so fd hygiene, PDEATHSIG, SIGPIPE, and "
           "reaping stay in one audited place";
  }
  if (rule == "priority-queue") {
    return "std::priority_queue outside sim/event_queue and "
           "flow/solver_internals; use EventQueue or DaryDijkstra "
           "(preallocated, reservable, move-out pop) instead of growing a "
           "new ad-hoc hot loop";
  }
  return "exit/abort/throw outside common/check.cpp and common/status.cpp "
         "kills or escapes a contained sweep; return a Status "
         "(common/status.hpp), use FLEXNETS_CHECK for invariants, or "
         "throw_status at a boundary that cannot return one";  // hard-exit
}

bool is_time_name(const std::string& s) {
  if (s == "now_sec" || s == "done_at" || s == "next_event") return true;
  return ends_with(s, "_sec") || ends_with(s, "_secs") ||
         ends_with(s, "_second") || ends_with(s, "_seconds");
}

bool is_time_call_name(const std::string& s) {
  return s == "to_seconds" || s == "to_millis" || s == "to_micros";
}

struct RulePass {
  const Corpus& corpus;
  Reporter& rep;
  // Unordered-container *fields* (declared at class scope), corpus-wide:
  // a .cpp iterating a field its header declared is visible cross-TU.
  std::set<std::string> unordered_fields;
  // Locals/globals stay per-file, like the Python lint, so a short local
  // name in one file cannot poison range-fors everywhere else.
  std::map<const FileData*, std::set<std::string>> unordered_locals;

  void collect_unordered() {
    for (const FileData& f : corpus.files) {
      const auto& t = f.lx.tokens;
      const std::vector<std::string> ctx = class_context(t);
      for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (!(tok_is(t, i, "std") && tok_is(t, i + 1, "::") &&
              t[i + 2].text.rfind("unordered_", 0) == 0)) {
          continue;
        }
        std::size_t j = i + 3;
        if (tok_is(t, j, "<")) {
          j = match_forward(t, j);
          if (j >= t.size()) continue;
          ++j;
        }
        if (j < t.size() && t[j].kind == TokKind::kIdent &&
            j + 1 < t.size()) {
          const std::string& after = t[j + 1].text;
          if (after == ";" || after == "=" || after == "{" || after == "(" ||
              t[j + 1].kind == TokKind::kIdent /* annotation macro */) {
            if (!ctx[j].empty()) {
              unordered_fields.insert(t[j].text);
            } else {
              unordered_locals[&f].insert(t[j].text);
            }
          }
        }
      }
    }
  }

  bool is_unordered_name(const FileData& f, const std::string& name) const {
    if (unordered_fields.count(name) > 0) return true;
    const auto it = unordered_locals.find(&f);
    return it != unordered_locals.end() && it->second.count(name) > 0;
  }

  void run_file(const FileData& f) {
    const auto& t = f.lx.tokens;
    const bool thread_ok =
        file_exempt(f, kRawThreadExempt, std::size(kRawThreadExempt));
    const bool exit_ok =
        file_exempt(f, kHardExitExempt, std::size(kHardExitExempt));
    const bool pq_ok = file_exempt(f, kPriorityQueueExempt,
                                   std::size(kPriorityQueueExempt));
    const bool proc_ok =
        file_exempt(f, kProcessApiExempt, std::size(kProcessApiExempt));

    auto emit = [&](std::size_t i, const char* rule) {
      rep.emit(f, t[i].line, rule, rule_message(rule));
    };
    auto prev = [&](std::size_t i) -> const std::string& {
      static const std::string empty;
      return i > 0 ? t[i - 1].text : empty;
    };
    auto next = [&](std::size_t i) -> const std::string& {
      static const std::string empty;
      return i + 1 < t.size() ? t[i + 1].text : empty;
    };

    for (std::size_t i = 0; i < t.size(); ++i) {
      // --- time-float-eq (operator tokens, so checked before the ident
      // filter): ==/!= with a *_sec-style name or to_seconds()-style call
      // directly on either side ---
      if (t[i].kind == TokKind::kPunct &&
          (t[i].text == "==" || t[i].text == "!=")) {
        bool hit = false;
        if (i > 0 && t[i - 1].kind == TokKind::kIdent &&
            is_time_name(t[i - 1].text)) {
          hit = true;
        } else if (i > 0 && t[i - 1].text == ")") {
          const std::size_t open = match_back(t, i - 1);
          if (open > 0 && open < t.size() &&
              t[open - 1].kind == TokKind::kIdent &&
              is_time_call_name(t[open - 1].text)) {
            hit = true;
          }
        }
        if (!hit && i + 1 < t.size() && t[i + 1].kind == TokKind::kIdent) {
          if (is_time_name(t[i + 1].text) ||
              (is_time_call_name(t[i + 1].text) && tok_is(t, i + 2, "("))) {
            hit = true;
          }
        }
        if (hit) emit(i, "time-float-eq");
      }

      if (t[i].kind != TokKind::kIdent) continue;
      const std::string& x = t[i].text;

      // --- raw-rng ---
      if (x == "rand" || x == "srand") {
        const std::string& p = prev(i);
        if (p == "::") {
          if (i >= 2 && t[i - 2].text == "std") emit(i, "raw-rng");
        } else if (p != "." && p != "->" && next(i) == "(") {
          emit(i, "raw-rng");
        }
      } else if (x == "random_device") {
        emit(i, "raw-rng");
      } else if (x == "random_shuffle") {
        if (prev(i) == "::" && i >= 2 && t[i - 2].text == "std") {
          emit(i, "raw-rng");
        }
      } else if (x == "drand48" || x == "lrand48" || x == "mrand48") {
        emit(i, "raw-rng");
      }

      // --- wall-clock ---
      if (x == "chrono" && prev(i) == "::" && i >= 2 &&
          t[i - 2].text == "std" && tok_is(t, i + 1, "::") &&
          i + 2 < t.size()) {
        const std::string& clk = t[i + 2].text;
        if (clk == "system_clock" || clk == "steady_clock" ||
            clk == "high_resolution_clock") {
          emit(i, "wall-clock");
        }
      } else if ((x == "gettimeofday" || x == "clock_gettime" ||
                  x == "localtime" || x == "gmtime") &&
                 next(i) == "(" && prev(i) != "." && prev(i) != "->") {
        emit(i, "wall-clock");
      } else if (x == "clock" && next(i) == "(" && tok_is(t, i + 2, ")") &&
                 prev(i) != "." && prev(i) != "->" && prev(i) != "::") {
        emit(i, "wall-clock");
      } else if (x == "time" && next(i) == "(" && prev(i) != "." &&
                 prev(i) != "->" && prev(i) != "::") {
        const std::string& arg = i + 2 < t.size() ? t[i + 2].text : "";
        if ((arg == ")" || arg == "NULL" || arg == "nullptr" ||
             arg == "0") &&
            (arg == ")" || tok_is(t, i + 3, ")"))) {
          emit(i, "wall-clock");
        }
      }

      // --- raw-thread / priority-queue ---
      if ((x == "thread" || x == "jthread") && prev(i) == "::" && i >= 2 &&
          t[i - 2].text == "std" && next(i) != "::") {
        if (!thread_ok) emit(i - 2, "raw-thread");
      }
      if (x == "priority_queue" && prev(i) == "::" && i >= 2 &&
          t[i - 2].text == "std") {
        if (!pq_ok) emit(i - 2, "priority-queue");
      }

      // --- hard-exit ---
      if (x == "throw") {
        if (!exit_ok) emit(i, "hard-exit");
      } else if (x == "exit" || x == "_exit" || x == "_Exit" ||
                 x == "quick_exit" || x == "abort") {
        const std::string& p = prev(i);
        const bool qualified_std =
            p == "::" && (i < 2 || t[i - 2].text == "std" ||
                          t[i - 2].kind != TokKind::kIdent);
        if (next(i) == "(" && p != "." && p != "->" &&
            (p != "::" || qualified_std)) {
          if (!exit_ok) emit(i, "hard-exit");
        }
      }

      // --- process-api: free calls only. obj.kill() / x->fork() are
      // methods of some wrapper and fine; `::kill` / `std::system` are
      // exactly the raw calls being banned; `otherns::kill` is a wrapper.
      // A preceding type-ish token (`void kill(int)`) marks a wrapper
      // DECLARATION, not a call — `return`/`case` still read as calls.
      if (is_process_api_name(x) && next(i) == "(") {
        const std::string& p = prev(i);
        const bool qualified_global_or_std =
            p == "::" && (i < 2 || t[i - 2].text == "std" ||
                          t[i - 2].kind != TokKind::kIdent);
        const bool decl_like =
            (i > 0 && t[i - 1].kind == TokKind::kIdent && p != "return" &&
             p != "co_return" && p != "case" && p != "else" && p != "do") ||
            p == "*" || p == "&" || p == ">";
        if (p != "." && p != "->" && !decl_like &&
            (p != "::" || qualified_global_or_std)) {
          if (!proc_ok) emit(i, "process-api");
        }
      }

      // --- unordered-iter: name.begin() ---
      if ((x == "begin" || x == "cbegin") && next(i) == "(" &&
          (prev(i) == "." || prev(i) == "->") && i >= 2 &&
          is_unordered_name(f, t[i - 2].text)) {
        emit(i - 2, "unordered-iter");
      }

      // --- unordered-iter: range-for ---
      if (x == "for" && next(i) == "(") {
        const std::size_t close = match_forward(t, i + 1);
        if (close >= t.size()) continue;
        // Find a ':' at paren depth 1 ("::" is a distinct token).
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t k = i + 1; k < close; ++k) {
          const std::string& y = t[k].text;
          if (y == "(" || y == "[" || y == "{") ++depth;
          if (y == ")" || y == "]" || y == "}") --depth;
          if (y == ";") break;  // classic for, not range-for
          if (y == ":" && depth == 1) {
            colon = k;
            break;
          }
        }
        if (colon == 0) continue;
        for (std::size_t k = colon + 1; k < close; ++k) {
          if (t[k].kind != TokKind::kIdent) continue;
          if (t[k].text.rfind("unordered_", 0) == 0 ||
              is_unordered_name(f, t[k].text)) {
            emit(i, "unordered-iter");
            break;
          }
        }
      }
    }
  }
};

}  // namespace

void run_rule_pass(const Corpus& corpus, Reporter& rep) {
  RulePass pass{corpus, rep, {}, {}};
  pass.collect_unordered();
  for (const FileData& f : corpus.files) pass.run_file(f);
}

}  // namespace flexnets::analyze

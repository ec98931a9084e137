#include "lint_rules.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

namespace bate::lint {

namespace {

/// Collects one file's findings.
struct Sink {
  const std::string& file;
  std::vector<Finding>& out;

  void report(int line, const std::string& rule, const std::string& message) {
    out.push_back({file, line, rule, message});
  }
};

/// Replaces comments and string/char literals with spaces (newlines kept so
/// line numbers survive). Good enough for lint: no raw strings in this
/// repository (the lint reports them if ever used for code-like content).
std::string strip_comments_and_strings(const std::string& src) {
  std::string out = src;
  enum class State { kCode, kLine, kBlock, kString, kChar } state = State::kCode;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(current);
  return lines;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `token` occurs in `line` with identifier boundaries on both
/// sides (so `new` does not match `renewal`).
bool contains_token(const std::string& line, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !is_ident_char(line[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

/// True when the raw (unstripped) source line allows `rule`.
bool line_allows(const std::string& raw_line, const std::string& rule) {
  return raw_line.find("bate-lint: allow(" + rule + ")") != std::string::npos;
}

// --- Rule: pragma-once ------------------------------------------------------

void check_pragma_once(Sink& sink, const std::string& raw) {
  if (raw.find("#pragma once") == std::string::npos) {
    sink.report(1, "pragma-once", "header is missing #pragma once");
  }
}

// --- Rule: seeded-rng -------------------------------------------------------

void check_seeded_rng(Sink& sink, const std::vector<std::string>& code,
                      const std::vector<std::string>& raw) {
  static const char* kBanned[] = {"std::rand", "srand", "random_device"};
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (const char* token : kBanned) {
      if (code[i].find(token) != std::string::npos &&
          !line_allows(raw[i], "seeded-rng")) {
        sink.report(static_cast<int>(i + 1), "seeded-rng",
               std::string(token) +
                   " breaks scenario determinism; draw from util/rng.h Rng");
      }
    }
  }
}

// --- Rule: no-naked-new -----------------------------------------------------

void check_naked_new(Sink& sink, const std::vector<std::string>& code,
                     const std::vector<std::string>& raw) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (contains_token(code[i], "new") && !line_allows(raw[i], "no-naked-new")) {
      sink.report(static_cast<int>(i + 1), "no-naked-new",
             "naked new; use std::make_unique / containers");
    }
  }
}

// --- Rule: solver-double ----------------------------------------------------

void check_solver_double(Sink& sink,
                         const std::vector<std::string>& code,
                         const std::vector<std::string>& raw) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (contains_token(code[i], "float") &&
        !line_allows(raw[i], "solver-double")) {
      sink.report(static_cast<int>(i + 1), "solver-double",
             "solver arithmetic must stay double (simplex tolerance "
             "analysis assumes a 52-bit mantissa)");
    }
  }
}

// --- Rule: header-contract --------------------------------------------------

/// src/solver headers: the file opens with a `//` contract-comment block and
/// `#pragma once` is the first non-comment line after it.
void check_header_contract(Sink& sink,
                           const std::vector<std::string>& raw) {
  std::size_t i = 0;
  while (i < raw.size() &&
         raw[i].find_first_not_of(" \t") == std::string::npos) {
    ++i;
  }
  if (i >= raw.size() || raw[i].rfind("//", 0) != 0) {
    sink.report(1, "header-contract",
           "src/solver header must open with a contract comment "
           "(what the component guarantees, under which tolerances)");
    return;
  }
  while (i < raw.size() && raw[i].rfind("//", 0) == 0) ++i;
  if (i >= raw.size() || raw[i].find("#pragma once") == std::string::npos) {
    sink.report(static_cast<int>(i + 1), "header-contract",
           "#pragma once must immediately follow the opening contract "
           "comment");
  }
}

// --- Rule: cold-solve -------------------------------------------------------

/// src/core + src/solver .cpp files: flags solve_lp / solve_milp calls
/// inside a loop body that pass no warm-start. Heuristic tier: a call "passes a
/// warm-start" when the call text (the line plus up to three continuation
/// lines) mentions a warm/basis identifier; a loop is a `for`/`while` whose
/// brace body is still open. Allowlisted by a `// cold-start: <reason>`
/// comment on the call line or one of the four raw lines above it (so the
/// reason can be a short comment block).
void check_cold_solve(Sink& sink,
                      const std::vector<std::string>& code,
                      const std::vector<std::string>& raw) {
  int depth = 0;
  bool pending_loop = false;   // saw for/while, waiting for its `{`
  std::vector<int> loop_depths;  // brace depth of each open loop body

  auto call_is_allowed = [&](std::size_t i) {
    for (std::size_t back = 0; back <= 4 && back <= i; ++back) {
      if (raw[i - back].find("cold-start:") != std::string::npos) return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    if (!loop_depths.empty()) {
      for (const char* call : {"solve_lp(", "solve_milp("}) {
        if (line.find(call) == std::string::npos) continue;
        std::string text = line;
        for (std::size_t j = i + 1; j < code.size() && j <= i + 3; ++j) {
          text += code[j];
        }
        const bool warm = text.find("warm") != std::string::npos ||
                          text.find("Warm") != std::string::npos ||
                          text.find("basis") != std::string::npos ||
                          text.find("Basis") != std::string::npos;
        if (!warm && !call_is_allowed(i)) {
          sink.report(static_cast<int>(i + 1), "cold-solve",
                 std::string(call) +
                     "...) inside a loop discards the previous iteration's "
                     "basis; pass a WarmStart or annotate `// cold-start: "
                     "<reason>`");
        }
      }
    }
    if (contains_token(line, "for") || contains_token(line, "while")) {
      pending_loop = true;
    }
    for (const char c : line) {
      if (c == '{') {
        ++depth;
        if (pending_loop) {
          loop_depths.push_back(depth);
          pending_loop = false;
        }
      } else if (c == '}') {
        while (!loop_depths.empty() && loop_depths.back() >= depth) {
          loop_depths.pop_back();
        }
        --depth;
      }
    }
    // `for (...) stmt;` without braces: the pending loop dies at the `;`.
    if (pending_loop && line.find(';') != std::string::npos &&
        line.find('{') == std::string::npos) {
      pending_loop = false;
    }
  }
}

// --- Rule: timing -----------------------------------------------------------

/// src/solver + src/core: hot-path timing goes through obs::now_us() — one
/// sanctioned clock, visible to the obs-overhead gate. A deliberate direct
/// steady_clock read carries `// timing: <reason>` on the line or one of
/// the two raw lines above it.
void check_timing(Sink& sink, const std::vector<std::string>& code,
                  const std::vector<std::string>& raw) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].find("steady_clock") == std::string::npos) continue;
    bool annotated = false;
    for (std::size_t back = 0; back <= 2 && back <= i; ++back) {
      if (raw[i - back].find("timing:") != std::string::npos) {
        annotated = true;
        break;
      }
    }
    if (!annotated && !line_allows(raw[i], "timing")) {
      sink.report(static_cast<int>(i + 1), "timing",
             "steady_clock in solver/core; time through obs::now_us() or "
             "annotate `// timing: <reason>`");
    }
  }
}

// --- Rule: raw-mutex --------------------------------------------------------

/// Everywhere except src/util/mutex.h: no raw standard-library mutexes,
/// locks, or condition variables. bate::Mutex / MutexLock / CondVar carry
/// the Clang Thread Safety Analysis attributes and the runtime lock-rank
/// checker; a raw std::mutex is invisible to both.
void check_raw_mutex(Sink& sink, const std::vector<std::string>& code,
                     const std::vector<std::string>& raw) {
  static const char* kBanned[] = {
      "std::mutex",          "std::timed_mutex",
      "std::recursive_mutex", "std::recursive_timed_mutex",
      "std::shared_mutex",    "std::shared_timed_mutex",
      "std::condition_variable", "std::condition_variable_any",
      "std::lock_guard",      "std::unique_lock",
      "std::scoped_lock",     "std::shared_lock",
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (const char* token : kBanned) {
      if (contains_token(code[i], token) &&
          !line_allows(raw[i], "raw-mutex")) {
        sink.report(static_cast<int>(i + 1), "raw-mutex",
               std::string(token) +
                   " bypasses thread-safety analysis and the lock-rank "
                   "checker; use bate::Mutex / MutexLock / CondVar "
                   "(util/mutex.h)");
      }
    }
  }
}

// --- Rule: request-id -------------------------------------------------------

/// src/system: a reply message constructed on the wire path must carry the
/// request_id correlating it to its request. Matches `<Name>ReplyMsg{` (a
/// brace construction; declarations put a space before the brace) and
/// accepts `request_id` or the conventional `rid` local within the next
/// three code lines. Pre-pipelining single-shot exchanges annotate
/// `// single-shot: <reason>` within the two raw lines above.
void check_request_id(Sink& sink,
                      const std::vector<std::string>& code,
                      const std::vector<std::string>& raw) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::size_t pos = code[i].find("ReplyMsg{");
    if (pos == std::string::npos) continue;
    bool correlated = false;
    for (std::size_t fwd = 0; fwd <= 3 && i + fwd < code.size(); ++fwd) {
      if (contains_token(code[i + fwd], "request_id") ||
          contains_token(code[i + fwd], "rid")) {
        correlated = true;
        break;
      }
    }
    bool single_shot = false;
    for (std::size_t back = 0; back <= 2 && back <= i; ++back) {
      if (raw[i - back].find("single-shot:") != std::string::npos) {
        single_shot = true;
        break;
      }
    }
    if (!correlated && !single_shot && !line_allows(raw[i], "request-id")) {
      sink.report(static_cast<int>(i + 1), "request-id",
             "reply constructed without a request_id; pipelined peers "
             "cannot correlate it — pass the request's id or annotate "
             "`// single-shot: <reason>`");
    }
  }
}

// --- Rule: slo-ledger -------------------------------------------------------

/// src/system + src/core: flags `= DemandState::...` assignments — lifecycle
/// transitions written around the SloLedger API. Comparisons (`==`, `!=`,
/// `<=`, `>=`) and declarations with initializers inside src/obs (the ledger
/// implementation itself) are fine; the ledger's one sanctioned assignment
/// carries `bate-lint: allow(slo-ledger)`.
void check_slo_ledger(Sink& sink,
                      const std::vector<std::string>& code,
                      const std::vector<std::string>& raw) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    std::size_t pos = 0;
    bool flagged = false;
    while (!flagged &&
           (pos = code[i].find("DemandState::", pos)) != std::string::npos) {
      // Walk left past the namespace qualifier (obs:: etc.) and whitespace
      // to the operator; a bare `=` is an assignment (or an initializer,
      // equally a transition), while the second char of ==/!=/<=/>= means a
      // comparison.
      std::size_t j = pos;
      while (j > 0 && (is_ident_char(code[i][j - 1]) || code[i][j - 1] == ':')) {
        --j;
      }
      while (j > 0 && (code[i][j - 1] == ' ' || code[i][j - 1] == '\t')) --j;
      if (j > 0 && code[i][j - 1] == '=' &&
          (j < 2 || (code[i][j - 2] != '=' && code[i][j - 2] != '!' &&
                     code[i][j - 2] != '<' && code[i][j - 2] != '>'))) {
        if (!line_allows(raw[i], "slo-ledger")) {
          sink.report(static_cast<int>(i + 1), "slo-ledger",
                 "demand lifecycle state assigned outside the SLO ledger; "
                 "route the transition through SloLedger "
                 "(admit/allocate/degrade/recover/withdraw) so availability "
                 "accounting stays coherent");
          flagged = true;
        }
      }
      pos += 1;
    }
  }
}

// --- lint_file --------------------------------------------------------------

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::string suf = suffix;
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

}  // namespace

std::vector<Finding> lint_file(const std::string& rel_path,
                               const std::string& text) {
  std::vector<Finding> out;
  Sink sink{rel_path, out};
  const bool header = ends_with(rel_path, ".h");
  const bool source = ends_with(rel_path, ".cpp");
  const bool in_solver = starts_with(rel_path, "src/solver");
  const bool in_core = starts_with(rel_path, "src/core");
  const bool in_system = starts_with(rel_path, "src/system");
  const auto code_lines = split_lines(strip_comments_and_strings(text));
  const auto raw_lines = split_lines(text);

  if (header) check_pragma_once(sink, text);
  if (rel_path != "src/util/rng.h") {
    check_seeded_rng(sink, code_lines, raw_lines);
  }
  check_naked_new(sink, code_lines, raw_lines);
  if (in_solver) {
    check_solver_double(sink, code_lines, raw_lines);
    if (header) check_header_contract(sink, raw_lines);
  }
  if (source && (in_core || in_solver)) {
    check_cold_solve(sink, code_lines, raw_lines);
  }
  if (in_solver || in_core) check_timing(sink, code_lines, raw_lines);
  if (rel_path != "src/util/mutex.h") {
    check_raw_mutex(sink, code_lines, raw_lines);
  }
  if (in_system) check_request_id(sink, code_lines, raw_lines);
  if (in_system || in_core) check_slo_ledger(sink, code_lines, raw_lines);

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return out;
}

}  // namespace bate::lint

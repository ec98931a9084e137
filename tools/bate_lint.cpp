// bate_lint — project-invariant lint no off-the-shelf tool knows.
//
// Registered as a ctest (tier-1), so every build runs it. Rules (rationale
// in DESIGN.md "Verification"):
//
//   pragma-once     every header under src/, tests/, tools/, bench/ and
//                   examples/ carries #pragma once.
//   seeded-rng      no std::rand / srand / std::random_device outside
//                   src/util/rng.h: scenario sampling and workload
//                   generation must stay bit-reproducible, so every random
//                   draw flows through the explicitly seeded Rng.
//   no-naked-new    no `new` expressions; ownership is RAII-only
//                   (make_unique/containers). A leak in the controller's
//                   event loop accumulates forever.
//   raw-mutex       no std::mutex / std::lock_guard / std::condition_
//                   variable (or friends) outside src/util/mutex.h: all
//                   locking flows through the capability-annotated
//                   bate::Mutex so Clang Thread Safety Analysis and the
//                   lock-rank checker see every acquisition. Superseded the
//                   old comment-driven `guarded-field` heuristic when the
//                   annotations became real attributes (DESIGN.md Sec 8).
//   solver-double   no `float` in src/solver: the simplex tableau and all
//                   derived arithmetic stay double; mixing float silently
//                   halves the mantissa and breaks the availability
//                   guarantee's tolerance analysis.
//   header-contract src/solver headers open with a contract comment (the
//                   `//` block stating what the component guarantees and
//                   under which tolerances) and `#pragma once` immediately
//                   follows it. The solver is the subsystem where the
//                   contracts carry numerical-tolerance arguments the code
//                   cannot express; a header without one is unreviewable.
//   cold-solve      src/core + src/solver: a solve_lp / solve_milp call
//                   inside a loop must pass a warm-start (an argument
//                   mentioning warm/basis) — re-solves in a loop are exactly
//                   where a reusable basis pays (DESIGN.md "Solver
//                   performance"); the cut-and-resolve and strong-branching
//                   loops in the solver itself are held to the same rule.
//                   Deliberate cold solves carry a `// cold-start: <reason>`
//                   comment on the call or just above it.
//   timing          src/solver + src/core: no std::chrono::steady_clock
//                   outside the src/obs wrappers — hot-path timing flows
//                   through obs::now_us() so the obs-overhead gate accounts
//                   for every clock read (DESIGN.md Sec 9). Deliberate
//                   direct reads carry `// timing: <reason>` on the line or
//                   just above it.
//   request-id      src/system: every `*ReplyMsg{...}` constructed on the
//                   wire path must mention request_id (or the conventional
//                   `rid` local) within three lines — pipelined connections
//                   demultiplex replies by it, and a reply built without
//                   one silently breaks every pipelined peer (DESIGN.md
//                   Sec 10). Legacy single-shot exchanges (the stats
//                   scrape, which predates pipelining) annotate
//                   `// single-shot: <reason>` on or just above the
//                   construction.
//   slo-ledger      src/system + src/core: no direct assignment to an
//                   obs::DemandState lvalue (`= DemandState::...`) outside
//                   src/obs — every demand lifecycle transition must go
//                   through the SloLedger API (admit/allocate/degrade/
//                   recover/withdraw) so the availability meter, the
//                   transition log and the budget-burn math stay coherent;
//                   a state mutated behind the ledger's back silently
//                   corrupts the SLO answer (DESIGN.md Sec 9).
//
// Escape hatch: a line containing `bate-lint: allow(<rule>)` disables the
// named rule for that line (src/util/mutex.h uses allow(raw-mutex) on the
// two std primitives it wraps).
//
// Usage: bate_lint <repo_root>   (exit 0 = clean, 1 = findings, 2 = usage)

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

std::vector<Finding> g_findings;

void report(const fs::path& file, int line, const std::string& rule,
            const std::string& message) {
  g_findings.push_back({file.string(), line, rule, message});
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

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

void check_pragma_once(const fs::path& file, const std::string& raw) {
  if (raw.find("#pragma once") == std::string::npos) {
    report(file, 1, "pragma-once", "header is missing #pragma once");
  }
}

// --- Rule: seeded-rng -------------------------------------------------------

void check_seeded_rng(const fs::path& file, const fs::path& rel,
                      const std::vector<std::string>& code,
                      const std::vector<std::string>& raw) {
  if (rel == fs::path("src/util/rng.h")) return;
  static const char* kBanned[] = {"std::rand", "srand", "random_device"};
  for (std::size_t i = 0; i < code.size(); ++i) {
    for (const char* token : kBanned) {
      if (code[i].find(token) != std::string::npos &&
          !line_allows(raw[i], "seeded-rng")) {
        report(file, static_cast<int>(i + 1), "seeded-rng",
               std::string(token) +
                   " breaks scenario determinism; draw from util/rng.h Rng");
      }
    }
  }
}

// --- Rule: no-naked-new -----------------------------------------------------

void check_naked_new(const fs::path& file, const std::vector<std::string>& code,
                     const std::vector<std::string>& raw) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (contains_token(code[i], "new") && !line_allows(raw[i], "no-naked-new")) {
      report(file, static_cast<int>(i + 1), "no-naked-new",
             "naked new; use std::make_unique / containers");
    }
  }
}

// --- Rule: solver-double ----------------------------------------------------

void check_solver_double(const fs::path& file,
                         const std::vector<std::string>& code,
                         const std::vector<std::string>& raw) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (contains_token(code[i], "float") &&
        !line_allows(raw[i], "solver-double")) {
      report(file, static_cast<int>(i + 1), "solver-double",
             "solver arithmetic must stay double (simplex tolerance "
             "analysis assumes a 52-bit mantissa)");
    }
  }
}

// --- Rule: header-contract --------------------------------------------------

/// src/solver headers: the file opens with a `//` contract-comment block and
/// `#pragma once` is the first non-comment line after it.
void check_header_contract(const fs::path& file,
                           const std::vector<std::string>& raw) {
  std::size_t i = 0;
  while (i < raw.size() &&
         raw[i].find_first_not_of(" \t") == std::string::npos) {
    ++i;
  }
  if (i >= raw.size() || raw[i].rfind("//", 0) != 0) {
    report(file, 1, "header-contract",
           "src/solver header must open with a contract comment "
           "(what the component guarantees, under which tolerances)");
    return;
  }
  while (i < raw.size() && raw[i].rfind("//", 0) == 0) ++i;
  if (i >= raw.size() || raw[i].find("#pragma once") == std::string::npos) {
    report(file, static_cast<int>(i + 1), "header-contract",
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
void check_cold_solve(const fs::path& file,
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
          report(file, static_cast<int>(i + 1), "cold-solve",
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
void check_timing(const fs::path& file, const std::vector<std::string>& code,
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
      report(file, static_cast<int>(i + 1), "timing",
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
void check_raw_mutex(const fs::path& file, const std::vector<std::string>& code,
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
        report(file, static_cast<int>(i + 1), "raw-mutex",
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
void check_request_id(const fs::path& file,
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
      report(file, static_cast<int>(i + 1), "request-id",
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
void check_slo_ledger(const fs::path& file,
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
          report(file, static_cast<int>(i + 1), "slo-ledger",
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

// --- Driver -----------------------------------------------------------------

bool has_extension(const fs::path& p, const char* ext) {
  return p.extension() == ext;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: bate_lint <repo_root>\n";
    return 2;
  }
  const fs::path root = argv[1];
  if (!fs::exists(root / "src")) {
    std::cerr << "bate_lint: " << root << " does not look like the repo root\n";
    return 2;
  }

  const std::vector<std::string> kTrees = {"src", "tests", "tools", "bench",
                                           "examples"};

  for (const std::string& tree : kTrees) {
    const fs::path base = root / tree;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& path = entry.path();
      const bool header = has_extension(path, ".h");
      const bool source = has_extension(path, ".cpp");
      if (!header && !source) continue;

      const fs::path rel = fs::relative(path, root);
      const std::string raw = read_file(path);
      const std::string code = strip_comments_and_strings(raw);
      const auto code_lines = split_lines(code);
      const auto raw_lines = split_lines(raw);

      if (header) check_pragma_once(rel, raw);
      check_seeded_rng(rel, rel, code_lines, raw_lines);
      check_naked_new(rel, code_lines, raw_lines);
      if (rel.string().rfind("src/solver", 0) == 0) {
        check_solver_double(rel, code_lines, raw_lines);
        if (header) check_header_contract(rel, raw_lines);
      }
      if (source && (rel.string().rfind("src/core", 0) == 0 ||
                     rel.string().rfind("src/solver", 0) == 0)) {
        check_cold_solve(rel, code_lines, raw_lines);
      }
      if (rel.string().rfind("src/solver", 0) == 0 ||
          rel.string().rfind("src/core", 0) == 0) {
        check_timing(rel, code_lines, raw_lines);
      }
      if (rel != fs::path("src/util/mutex.h")) {
        check_raw_mutex(rel, code_lines, raw_lines);
      }
      if (rel.string().rfind("src/system", 0) == 0) {
        check_request_id(rel, code_lines, raw_lines);
      }
      if (rel.string().rfind("src/system", 0) == 0 ||
          rel.string().rfind("src/core", 0) == 0) {
        check_slo_ledger(rel, code_lines, raw_lines);
      }
    }
  }

  if (g_findings.empty()) {
    std::cout << "bate_lint: clean\n";
    return 0;
  }
  std::sort(g_findings.begin(), g_findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
  for (const Finding& f : g_findings) {
    std::cerr << f.file << ':' << f.line << ": [" << f.rule << "] "
              << f.message << '\n';
  }
  std::cerr << "bate_lint: " << g_findings.size() << " finding(s)\n";
  return 1;
}

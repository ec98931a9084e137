// bate_lint's rules — project invariants no off-the-shelf tool knows — as
// one function from a repo-relative path and the file's text to findings.
// tools/bate_lint.cpp walks the repo through it (a tier-1 ctest, so every
// build runs it), and tests/lint_test.cpp pins each rule with a firing and
// a clean snippet. Rules (rationale in DESIGN.md "Verification"):
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

#pragma once

#include <string>
#include <vector>

namespace bate::lint {

struct Finding {
  std::string file;  // repo-relative path
  int line = 0;
  std::string rule;
  std::string message;
};

/// Runs every rule that applies to `rel_path` over `text` (the file's
/// contents) and returns the findings in line order. `rel_path` is relative
/// to the repo root with `/` separators ("src/solver/simplex.cpp"); its
/// directory and extension decide which rules apply.
std::vector<Finding> lint_file(const std::string& rel_path,
                               const std::string& text);

}  // namespace bate::lint

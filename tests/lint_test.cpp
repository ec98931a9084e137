// bate_lint rule fixtures: for each of the ten rules in tools/lint_rules.h,
// one snippet the rule must flag and one it must leave alone. The path
// passed with each snippet decides which rules apply, so every snippet is
// linted as if it lived where the rule is enforced.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint_rules.h"

namespace bate {
namespace {

/// The rule names `lint_file` reports for `text` at `rel_path`, in line
/// order.
std::vector<std::string> fired(const std::string& rel_path,
                               const std::string& text) {
  std::vector<std::string> rules;
  for (const lint::Finding& f : lint::lint_file(rel_path, text)) {
    rules.push_back(f.rule);
  }
  return rules;
}

using Rules = std::vector<std::string>;

TEST(BateLint, PragmaOnce) {
  EXPECT_EQ(fired("src/util/widget.h", "int widget();\n"),
            Rules{"pragma-once"});
  EXPECT_EQ(fired("src/util/widget.h", "#pragma once\nint widget();\n"),
            Rules{});
}

TEST(BateLint, SeededRng) {
  EXPECT_EQ(fired("src/workload/draw.cpp",
                  "int draw() { return std::rand() % 6; }\n"),
            Rules{"seeded-rng"});
  EXPECT_EQ(fired("src/workload/draw.cpp",
                  "int draw(Rng& rng) { return rng.uniform_int(0, 5); }\n"),
            Rules{});
}

TEST(BateLint, NoNakedNew) {
  EXPECT_EQ(fired("src/core/owner.cpp", "int* p = new int(3);\n"),
            Rules{"no-naked-new"});
  // `new` inside an identifier is not a new-expression.
  EXPECT_EQ(fired("src/core/owner.cpp",
                  "auto p = std::make_unique<int>(3);\nint renewal = 0;\n"),
            Rules{});
}

TEST(BateLint, RawMutex) {
  EXPECT_EQ(fired("src/system/peer.cpp", "std::mutex mu;\n"),
            Rules{"raw-mutex"});
  EXPECT_EQ(fired("src/system/peer.cpp",
                  "Mutex mu{LockRank::kBroker, \"peer\"};\n"),
            Rules{});
}

TEST(BateLint, SolverDouble) {
  EXPECT_EQ(fired("src/solver/step.cpp", "float step = 0.5f;\n"),
            Rules{"solver-double"});
  EXPECT_EQ(fired("src/solver/step.cpp", "double step = 0.5;\n"), Rules{});
}

TEST(BateLint, HeaderContract) {
  EXPECT_EQ(fired("src/solver/step.h", "#pragma once\n// Contract.\n"),
            Rules{"header-contract"});
  EXPECT_EQ(fired("src/solver/step.h",
                  "// Contract: what the step guarantees, and to which\n"
                  "// tolerance.\n"
                  "#pragma once\n"),
            Rules{});
}

TEST(BateLint, ColdSolve) {
  EXPECT_EQ(fired("src/core/resolve.cpp",
                  "void resolve(const Model& m) {\n"
                  "  for (int i = 0; i < 3; ++i) {\n"
                  "    solve_lp(m);\n"
                  "  }\n"
                  "}\n"),
            Rules{"cold-solve"});
  EXPECT_EQ(fired("src/core/resolve.cpp",
                  "void resolve(const Model& m, WarmStart& warm) {\n"
                  "  for (int i = 0; i < 3; ++i) {\n"
                  "    solve_lp(m, {}, &warm);\n"
                  "  }\n"
                  "}\n"),
            Rules{});
}

TEST(BateLint, Timing) {
  EXPECT_EQ(fired("src/core/clock.cpp",
                  "auto t = std::chrono::steady_clock::now();\n"),
            Rules{"timing"});
  EXPECT_EQ(fired("src/core/clock.cpp", "const auto t = obs::now_us();\n"),
            Rules{});
}

TEST(BateLint, RequestId) {
  EXPECT_EQ(fired("src/system/reply.cpp",
                  "auto reply = AdmissionReplyMsg{};\n"
                  "reply.admitted = true;\n"),
            Rules{"request-id"});
  EXPECT_EQ(fired("src/system/reply.cpp",
                  "auto reply = AdmissionReplyMsg{};\n"
                  "reply.request_id = rid;\n"),
            Rules{});
}

TEST(BateLint, SloLedger) {
  EXPECT_EQ(fired("src/core/state.cpp", "state = DemandState::kDegraded;\n"),
            Rules{"slo-ledger"});
  EXPECT_EQ(fired("src/core/state.cpp",
                  "if (s == DemandState::kDegraded) ledger.recover(id, t);\n"),
            Rules{});
}

TEST(BateLint, AllowCommentSilencesOnlyTheNamedRule) {
  EXPECT_EQ(fired("src/system/peer.cpp",
                  "std::mutex mu;  // bate-lint: allow(raw-mutex)\n"),
            Rules{});
  EXPECT_EQ(fired("src/system/peer.cpp",
                  "std::mutex mu;  // bate-lint: allow(no-naked-new)\n"),
            Rules{"raw-mutex"});
}

}  // namespace
}  // namespace bate

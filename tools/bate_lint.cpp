// bate_lint — project-invariant lint no off-the-shelf tool knows.
//
// Walks the C++ trees of the repo (src, tests, tools, bench, examples) and
// runs the rules of tools/lint_rules.h over every .h / .cpp file.
// Registered as a ctest (tier-1), so every build runs it.
//
// Usage: bate_lint <repo_root>   (exit 0 = clean, 1 = findings, 2 = usage)

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "lint_rules.h"

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
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

  std::vector<bate::lint::Finding> findings;
  for (const char* tree : {"src", "tests", "tools", "bench", "examples"}) {
    const fs::path base = root / tree;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& path = entry.path();
      if (path.extension() != ".h" && path.extension() != ".cpp") continue;
      const auto found = bate::lint::lint_file(
          fs::relative(path, root).generic_string(), read_file(path));
      findings.insert(findings.end(), found.begin(), found.end());
    }
  }

  if (findings.empty()) {
    std::cout << "bate_lint: clean\n";
    return 0;
  }
  std::sort(findings.begin(), findings.end(),
            [](const bate::lint::Finding& a, const bate::lint::Finding& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
  for (const auto& f : findings) {
    std::cerr << f.file << ':' << f.line << ": [" << f.rule << "] "
              << f.message << '\n';
  }
  std::cerr << "bate_lint: " << findings.size() << " finding(s)\n";
  return 1;
}

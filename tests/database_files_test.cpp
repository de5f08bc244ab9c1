// Tests the on-disk design database (data/database/*.snl): every checked-in
// schematic must load, finalize, pass timing analysis, and size. This is
// the persistence half of the paper's §3 "large expandable database" —
// entries survive as reviewable text and come back fully usable.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/experiment.h"
#include "helpers.h"
#include "models/fitter.h"
#include "netlist/serialize.h"
#include "refsim/rc_timer.h"

namespace smart {
namespace {

std::filesystem::path database_dir() {
  // The data directory lives in the source tree, whose root the build
  // passes in, so the tests find it from any build directory.
  const auto dir =
      std::filesystem::path(SMART_SOURCE_DIR) / "data" / "database";
  return std::filesystem::exists(dir) ? dir : std::filesystem::path{};
}

std::vector<std::filesystem::path> database_files() {
  std::vector<std::filesystem::path> files;
  const auto dir = database_dir();
  if (dir.empty()) return files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".snl") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(DatabaseFilesTest, DirectoryPresentAndPopulated) {
  const auto files = database_files();
  ASSERT_FALSE(files.empty())
      << "data/database/*.snl not found from "
      << std::filesystem::current_path();
  EXPECT_GE(files.size(), 8u);
}

TEST(DatabaseFilesTest, EveryEntryLoadsAndTimes) {
  const refsim::RcTimer timer(tech::default_tech());
  for (const auto& path : database_files()) {
    SCOPED_TRACE(path.filename().string());
    const auto nl = netlist::from_text(slurp(path));
    EXPECT_TRUE(nl.finalized());
    EXPECT_GT(nl.comp_count(), 0u);
    const netlist::Sizing sizing(nl.label_count(), 2.0);
    const auto report = timer.analyze(nl, sizing);
    EXPECT_GT(report.worst_delay, 0.0);
    EXPECT_LT(report.worst_delay, 1e6);
  }
}

TEST(DatabaseFilesTest, EntriesAreRewritableUnchanged) {
  for (const auto& path : database_files()) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = slurp(path);
    EXPECT_EQ(netlist::to_text(netlist::from_text(text)), text);
  }
}

TEST(DatabaseFilesTest, LoadedEntrySizesToSpec) {
  const auto dir = database_dir();
  ASSERT_FALSE(dir.empty());
  const auto nl =
      netlist::from_text(slurp(dir / "decoder_predecode_3.snl"));
  const auto cmp = core::run_iso_delay(nl, tech::default_tech(),
                                       models::default_library());
  ASSERT_TRUE(cmp.ok) << cmp.smart.message;
  EXPECT_GT(cmp.width_saving(), 0.0);
}

}  // namespace
}  // namespace smart

// Unit tests for the util library: formatting, tables, RNG determinism,
// the dense linear algebra used by the GP solver and model fitter, and the
// JSON encoder and file writer every exporter shares.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/file.h"
#include "util/json.h"
#include "util/linalg.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strfmt.h"
#include "util/table.h"

namespace smart::util {
namespace {

TEST(Strfmt, FormatsLikePrintf) {
  EXPECT_EQ(strfmt("x=%d y=%.2f s=%s", 7, 1.5, "hi"), "x=7 y=1.50 s=hi");
  EXPECT_EQ(strfmt("%s", ""), "");
}

TEST(Strfmt, HandlesLongStrings) {
  const std::string big(10000, 'a');
  EXPECT_EQ(strfmt("%s", big.c_str()).size(), big.size());
}

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(SMART_CHECK(false, "boom"), Error);
  try {
    SMART_CHECK(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
  }
  EXPECT_NO_THROW(SMART_CHECK(true, "fine"));
}

TEST(Logging, ParsesLevelNames) {
  LogLevel lvl = LogLevel::kError;
  EXPECT_TRUE(parse_log_level("debug", &lvl));
  EXPECT_EQ(lvl, LogLevel::kDebug);
  EXPECT_TRUE(parse_log_level("warn", &lvl));
  EXPECT_EQ(lvl, LogLevel::kWarn);
  EXPECT_TRUE(parse_log_level("off", &lvl));
  EXPECT_EQ(lvl, LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("loud", &lvl));
  EXPECT_EQ(lvl, LogLevel::kOff);  // unchanged on failure
}

TEST(Logging, ThresholdFiltersMessages) {
  std::FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  set_log_sink(capture);
  set_log_level(LogLevel::kWarn);
  log_debug("dropped");
  log_warn(strfmt("kept %d", 1));
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);
  std::fflush(capture);
  std::rewind(capture);
  std::string text;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), capture) != nullptr) text += buf;
  std::fclose(capture);
  EXPECT_EQ(text.find("dropped"), std::string::npos);
  EXPECT_NE(text.find("[smart:W] kept 1"), std::string::npos);
}

// The advisor logs from std::async workers while the main thread may be
// adjusting the level; the sink must serialize writers and the threshold
// must be safe to flip concurrently (no torn lines, no crashes).
TEST(Logging, ConcurrentWritersAndLevelFlips) {
  std::FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  set_log_sink(capture);
  set_log_level(LogLevel::kInfo);
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        log_info(strfmt("thread %d line %04d tail", t, i));
        if (i % 100 == 0)
          set_log_level(t % 2 == 0 ? LogLevel::kInfo : LogLevel::kDebug);
      }
    });
  }
  for (auto& th : threads) th.join();
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);
  std::fflush(capture);
  std::rewind(capture);
  // Every line is complete: mutex-serialized writes cannot interleave.
  int lines = 0;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), capture) != nullptr) {
    ++lines;
    std::string line(buf);
    EXPECT_EQ(line.rfind("[smart:I] thread ", 0), 0u) << line;
    EXPECT_NE(line.find(" tail\n"), std::string::npos) << line;
  }
  std::fclose(capture);
  // The level only ever toggles between kInfo and kDebug, so every
  // log_info call passes the threshold.
  EXPECT_EQ(lines, kThreads * kIters);
}

TEST(Table, RendersAlignedCells) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "2.5"});
  const std::string out = t.render("Title");
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Matrix, MulAndTranspose) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vec x = {1, 1, 1};
  const Vec y = a.mul(x);
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
  const Vec z = a.mul_transpose({1, 1});
  EXPECT_DOUBLE_EQ(z[0], 5);
  EXPECT_DOUBLE_EQ(z[1], 7);
  EXPECT_DOUBLE_EQ(z[2], 9);
}

TEST(Cholesky, SolvesSpdSystem) {
  // A = L L^T with known solution.
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  Matrix work;
  Vec x;
  cholesky_solve(a, {8, 7}, work, x);
  EXPECT_NEAR(x[0], 1.25, 1e-9);
  EXPECT_NEAR(x[1], 1.5, 1e-9);
}

TEST(Cholesky, RegularizesNearSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 1;  // rank 1
  Matrix work;
  Vec x;
  cholesky_solve(a, {2, 2}, work, x);
  // Regularized solution still approximately satisfies the system.
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-3);
}

TEST(Cholesky, RandomSpdRoundTrip) {
  Rng rng(123);
  Matrix work;  // reused across solves, as the GP solver's Newton loop does
  Vec got;
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 5;
    Matrix b(n, n);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j) b(i, j) = rng.gaussian(0, 1);
    // A = B B^T + I is SPD.
    Matrix a(n, n);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j) {
        double s = (i == j) ? 1.0 : 0.0;
        for (size_t k = 0; k < n; ++k) s += b(i, k) * b(j, k);
        a(i, j) = s;
      }
    Vec want(n);
    for (size_t i = 0; i < n; ++i) want[i] = rng.gaussian(0, 2);
    const Vec rhs = a.mul(want);
    cholesky_solve(a, rhs, work, got);
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], want[i], 1e-6);
  }
}

TEST(Nnls, MatchesUnconstrainedWhenPositive) {
  // Exact positive solution: NNLS must find it.
  Matrix a(4, 2);
  a(0, 0) = 1;
  a(1, 1) = 1;
  a(2, 0) = 1;
  a(2, 1) = 1;
  a(3, 0) = 2;
  const Vec want = {1.5, 2.5};
  const Vec b = a.mul(want);
  const Vec x = nnls(a, b);
  EXPECT_NEAR(x[0], 1.5, 1e-6);
  EXPECT_NEAR(x[1], 2.5, 1e-6);
}

TEST(Nnls, ClampsNegativeComponents) {
  // Best unconstrained fit would need a negative coefficient.
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 1;
  a(1, 0) = 0;
  a(1, 1) = 1;
  const Vec x = nnls(a, {1.0, -2.0});
  EXPECT_GE(x[0], 0.0);
  EXPECT_GE(x[1], 0.0);
}

TEST(Nnls, ResidualNotWorseThanZero) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a(8, 3);
    Vec b(8);
    for (size_t i = 0; i < 8; ++i) {
      b[i] = rng.gaussian(0, 1);
      for (size_t j = 0; j < 3; ++j) a(i, j) = rng.uniform(0, 1);
    }
    const Vec x = nnls(a, b);
    for (double v : x) EXPECT_GE(v, 0.0);
    Vec r = a.mul(x);
    axpy(-1.0, b, r);
    EXPECT_LE(norm2(r), norm2(b) + 1e-9);
  }
}

TEST(VecOps, DotNormAxpy) {
  Vec a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 32);
  EXPECT_DOUBLE_EQ(norm_inf(b), 6);
  axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(b[2], 12);
}

TEST(Json, EscapeRoundTripsThroughParse) {
  const std::vector<std::string> cases = {
      "quote \" inside", "back\\slash", "line\nbreak", "carriage\rreturn",
      "tab\there", std::string("ctl\x01byte"), std::string("ctl\x1f"),
      "plain UTF-8: \xc2\xb5m, \xe2\x89\xa4 5 ps", ""};
  for (const std::string& text : cases) {
    std::string doc = "\"";
    doc += json_escape(text);
    doc += '"';
    JsonValue v;
    ASSERT_TRUE(json_parse(doc, &v)) << doc;
    EXPECT_EQ(v.kind, JsonValue::Kind::kString);
    EXPECT_EQ(v.str, text) << doc;
  }
  EXPECT_EQ(json_escape("a\rb\x01"), "a\\rb\\u0001");
}

TEST(Json, NumberIsTenDigitsAndFinite) {
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(0.1 + 0.2), "0.3");
  EXPECT_EQ(json_number(1234567.891234), "1234567.891");
  EXPECT_EQ(json_number(std::nan("")), "0");
  EXPECT_EQ(json_number(-HUGE_VAL), "0");
}

/// A fresh scratch path for one test (removed first if a previous run
/// left it behind).
std::string scratch_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "util_test_" + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

bool exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

TEST(WriteFile, ReplacesContentAndLeavesNoTmp) {
  const std::string path = scratch_path("replace.txt");
  ASSERT_TRUE(write_file(path, "first version, longer than the second\n"));
  ASSERT_TRUE(write_file(path, "second\n"));
  std::string text;
  ASSERT_TRUE(read_file(path, &text));
  EXPECT_EQ(text, "second\n");
  EXPECT_FALSE(exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(WriteFile, FailsCleanlyWhenTheTmpCannotBeCreated) {
  // chmod does not stop root, so the unwritable spot is a missing
  // directory: neither the target nor its tmp sibling can be created.
  const std::string dir = scratch_path("missing_dir");
  const std::string path = dir + "/metrics.json";
  EXPECT_FALSE(write_file(path, "{}\n"));
  EXPECT_FALSE(exists(path));
  EXPECT_FALSE(exists(path + ".tmp"));

  // Same failure next to a file that exists: its tmp sibling's name is
  // taken by a directory, so the old bytes must survive untouched.
  const std::string kept = scratch_path("kept.json");
  const std::string old = "{\"old\": 1}\n";
  ASSERT_TRUE(write_file(kept, old));
  ASSERT_EQ(::mkdir((kept + ".tmp").c_str(), 0755), 0);
  EXPECT_FALSE(write_file(kept, "{\"new\": 2}\n"));
  std::string text;
  ASSERT_TRUE(read_file(kept, &text));
  EXPECT_EQ(text, old);
  ::rmdir((kept + ".tmp").c_str());
  std::remove(kept.c_str());
}

TEST(WriteFile, RemovesTheTmpWhenTheRenameFails) {
  // A non-empty directory cannot be renamed over.
  const std::string dir = scratch_path("target_dir");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  ASSERT_TRUE(write_file(dir + "/inside", "x"));
  EXPECT_FALSE(write_file(dir, "not a directory\n"));
  EXPECT_FALSE(exists(dir + ".tmp"));
  std::remove((dir + "/inside").c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace smart::util
